"""Outside-in layer tracing: spans from wrappers around public calls.

Nothing here edits the program.  :func:`install` replaces a handful of
bound methods (on one deployment's objects) and a few class or module
attributes with wrappers that open a span on entry and close it on
exit; :meth:`Installation.restore` puts the originals back.  Spans are
recorded only while a query's root span is open, so the untimed answer
check, which calls the same origin and template methods, leaves no
trace.

A layer's *self time* is its span's duration minus the time covered by
its child spans.  The root span's self time is the ``unattributed``
row: client-loop work between the wrapped calls.  Self times of all
layers plus ``unattributed`` therefore sum to the traced query wall
time by construction.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

ROOT = "unattributed"

#: Layer rows of the self-time table, outermost first.
LAYERS = (
    "webapp.dispatch",
    "webapp.to_xml",
    "admission.try_admit",
    "cluster.router",
    "cluster.route",
    "templates.bind",
    "core.proxy",
    "core.description.probe",
    "core.description.maint",
    "core.cache.store",
    "core.evaluation",
    "core.remainder",
    "server.origin",
    "persistence.hook",
    "persistence.checkpoint",
)


class SpanRecorder:
    """Keeps spans in memory: (id, name, start, end, parent, query)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS + (ROOT,), 0.0)
        self.counts: Counter[str] = Counter()
        self.shard_queries: Counter[str] = Counter()
        self.active = False
        self.queries = 0
        self.wall_s = 0.0
        self._stack: list[list] = []
        self._next_id = 0
        self._query = -1

    # ------------------------------------------------------------ spans
    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, name, parent, perf_counter(), 0.0])
        self._next_id += 1

    def close(self) -> float:
        end = perf_counter()
        span_id, name, parent, start, children = self._stack.pop()
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append((span_id, name, start, end, parent, self._query))
        return duration

    def top(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def begin_query(self, index: int) -> None:
        self._query = index
        self.active = True
        self.open(ROOT)

    def end_query(self) -> float:
        duration = self.close()
        self.active = False
        self.queries += 1
        self.wall_s += duration
        return duration

    # ------------------------------------------------------------ output
    def self_us_per_query(self) -> dict[str, float]:
        queries = max(self.queries, 1)
        return {
            name: seconds * 1e6 / queries
            for name, seconds in self.self_s.items()
        }

    def write_jsonl(self, path: Path) -> None:
        """One span per line; times in microseconds from the first span."""
        origin = min((span[2] for span in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, query in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_us": (start - origin) * 1e6,
                            "end_us": (end - origin) * 1e6,
                            "parent": parent,
                            "query": query,
                        }
                    )
                    + "\n"
                )


class Installation:
    """The wrappers one :func:`install` put in place, restorable."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[Any, str, bool, Any]] = []

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)``; skipped when
        the attribute does not exist (the layer then reads zero)."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        own = attr in getattr(owner, "__dict__", {})
        self._undo.append((owner, attr, own, owner.__dict__.get(attr)))
        setattr(owner, attr, make(original))

    def span(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Callable[[Any, tuple], None] | None = None,
        only_under: frozenset[str] | None = None,
        not_under: frozenset[str] = frozenset(),
    ) -> None:
        """Wrap ``owner.attr`` in a span named ``name``.

        ``after(result, args)`` runs inside the span, for counters.
        ``only_under`` / ``not_under`` restrict recording by the name
        of the enclosing span, for shared helpers that belong to a
        different layer depending on who calls them.
        """
        recorder = self.recorder

        def make(original):
            def wrapper(*args, **kwargs):
                if not recorder.active:
                    return original(*args, **kwargs)
                parent = recorder.top()
                if parent in not_under or (
                    only_under is not None and parent not in only_under
                ):
                    return original(*args, **kwargs)
                recorder.open(name)
                try:
                    result = original(*args, **kwargs)
                    if after is not None:
                        after(result, args)
                    return result
                finally:
                    recorder.close()

            return wrapper

        self.patch(owner, attr, make)

    def count(
        self, owner: Any, attr: str, counter: Callable[[Any, tuple], None]
    ) -> None:
        """Wrap ``owner.attr`` with a counter only (no span)."""
        recorder = self.recorder

        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                if recorder.active:
                    counter(result, args)
                return result

            return wrapper

        self.patch(owner, attr, make)

    def restore(self) -> None:
        for owner, attr, own, value in reversed(self._undo):
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._undo.clear()


def _template_entries(description: Any, template_id: str) -> int:
    """Entries of one template the description holds (array or R-tree)."""
    for attr in ("_by_template", "_entries"):
        buckets = getattr(description, attr, None)
        if isinstance(buckets, dict):
            return len(buckets.get(template_id, ()))
    return 0


def install(recorder: SpanRecorder, deployment: Any) -> Installation:
    """Wrap one deployment's layers; returns the undo handle."""
    import repro.core.proxy as proxy_module
    from repro.relational.result import ResultTable

    counts = recorder.counts
    inst = Installation(recorder)

    def on_store(result, args):
        _entry, report = result
        counts["evictions"] += report.evicted_entries
        counts["admitted_bytes"] += report.stored_bytes

    def on_probe(description):
        def count(result, args):
            counts["probes"] += 1
            counts["candidates"] += len(result[0])
            counts["probe_entries"] += _template_entries(description, args[0])

        return count

    def on_local(result, args):
        counts["rows_read"] += result.tuples_read
        counts["rows_returned"] += len(result.result)

    def on_origin(result, args):
        counts["origin_calls"] += 1
        counts["origin_rows"] += len(result.result)

    def on_checkpoint(persister):
        def count(result, args):
            counts["checkpoints"] += 1
            counts["persist_bytes"] += persister.snapshot_path.stat().st_size

        return count

    def on_journal(result, args):
        counts["persist_bytes"] += int(result)

    def on_acquire(result, args):
        counts["lock_acquires"] += 1

    def on_route(result, args):
        if result.dispatched is not None:
            recorder.shard_queries[result.dispatched] += 1

    # Class- and module-level wrappers: shared helpers and locks.
    inst.span(proxy_module, "build_remainder", "core.remainder")
    inst.span(
        ResultTable,
        "merge_dedup",
        "core.remainder",
        not_under=frozenset({"core.evaluation"}),
    )
    inst.span(
        ResultTable,
        "to_xml",
        "webapp.to_xml",
        only_under=frozenset({"webapp.dispatch"}),
    )
    # ROADMAP item 3 plans to delete the lock layer; the count then
    # reads zero instead of the benchmark failing.
    try:
        from repro.locking import NamedLock
    except ImportError:
        pass
    else:
        inst.count(NamedLock, "acquire", on_acquire)

    # Instance-level wrappers on this deployment's objects.
    origin = deployment.origin
    inst.span(origin, "execute_bound", "server.origin", on_origin)
    inst.span(origin, "execute_remainder", "server.origin", on_origin)
    templates = origin.templates
    inst.span(templates, "bind", "templates.bind")
    inst.span(templates, "bind_form", "templates.bind")
    for proxy in deployment.proxies:
        inst.span(proxy, "serve", "core.proxy")
        inst.span(proxy.evaluator, "select_in_region", "core.evaluation", on_local)
        inst.span(proxy.evaluator, "finalize", "core.evaluation")
        cache = proxy.cache
        inst.span(cache, "store", "core.cache.store", on_store)
        description = cache.description
        inst.span(
            description,
            "candidates",
            "core.description.probe",
            on_probe(description),
        )
        inst.span(description, "add", "core.description.maint")
        inst.span(description, "remove", "core.description.maint")
        if proxy.admission is not None:
            inst.span(proxy.admission, "try_admit", "admission.try_admit")
        persister = proxy.persistence
        if persister is not None:
            for hook in ("admitted", "removed", "cleared"):
                inst.span(persister, hook, "persistence.hook")
            inst.span(
                persister,
                "checkpoint",
                "persistence.checkpoint",
                on_checkpoint(persister),
            )
            inst.count(persister.journal, "append", on_journal)
    router = getattr(deployment, "router", None)
    if router is not None:
        inst.span(router, "serve_routed", "cluster.router")
        inst.span(router, "route", "cluster.route", on_route)
    client = getattr(deployment, "client", None)
    if client is not None:
        inst.span(client, "get", "webapp.dispatch")
    return inst
