"""A deterministic hierarchical profiler for the hot paths.

Where :mod:`repro.obs.spans` records *individual* query lifecycles (a
tree per query, bounded ring buffer), the profiler *aggregates*: one
:class:`StageStats` per named stage, accumulating call counts,
cumulative and self time on both clocks (simulated milliseconds charged
by the cost models, real wall-clock milliseconds measured around the
stage), and free-form operator counters (rows read, regions probed,
tuples merged).  The proxy and origin attach it through their
instrumentation bundles (:mod:`repro.obs.instrument`); ``GET /profile``
serves the aggregate as JSON or a ``pprof``-style flat text table, and
the harness writes it per run as ``profile-<label>.json``.

Self vs cumulative follows the classic profiler convention: a stage's
*cumulative* time includes the stages opened inside it, its *self* time
excludes them.  Re-entrant stages (the same name open twice on the
stack) count one call per entry but contribute to cumulative time only
at the outermost frame, so recursion cannot double-count.

The profiler also keeps the top-K *slowest queries* by simulated
response time — the capture that turns "p95 moved" into "these are the
queries that moved it".

Two implementations share the interface:

* :class:`Profiler` — records everything;
* :class:`NullProfiler` — the default off switch: ``stage()`` hands
  back a shared do-nothing frame, so instrumented code pays one method
  call and no allocation per stage.

Stage names are stable identifiers (pinned in DESIGN.md, like the
diagnostic codes): renaming one is a breaking change for anything
filtering profiles or baselines by stage.  Each proxy/origin owns
its own profiler, matching the tracers.
"""

from __future__ import annotations

import time
from types import TracebackType
from typing import Any, Callable

#: The stable stage-name registry (see DESIGN.md).  Instrumented code
#: is not limited to these, but the hot-path stages the acceptance
#: criteria and baselines key on must keep these exact names.
STAGE_NAMES = (
    "admit.queue",      # simulated wait in the admission accept queue
    "admit.shed",       # admission turn-away bookkeeping (count-only)
    "parse",            # query parsing charge
    "check",            # cache-description check (region probe phase)
    "probe.array",      # array description probe inside `check`
    "probe.rtree",      # R-tree description probe inside `check`
    "relate",           # exact region-relation checks inside `check`
    "local_eval",       # local evaluation over cached results
    "read",             # cached-tuple read charge
    "remainder_build",  # remainder-query construction
    "origin",           # resilient origin fetch (proxy side)
    "transfer",         # WAN transfer charge
    "merge",            # remainder merge (probe result + origin rows)
    "maintenance",      # cache admission / consolidation / eviction
    "cache.insert",     # cache-manager mutation events (count-only)
    "cache.evict",
    "cache.remove",
    "cache.clear",
    "journal.append",   # persistence journal writes (count-only)
    "journal.replay",
    "origin.form",      # origin-side execution, by request kind
    "origin.sql",
    "origin.remainder",
    "executor.scan",    # relational operator counters (count-only)
    "executor.join",
    "executor.filter",
    "executor.aggregate",
    "executor.project",
)


class StageStats:
    """Aggregated measurements for one named stage."""

    __slots__ = (
        "name",
        "calls",
        "cum_sim_ms",
        "self_sim_ms",
        "cum_wall_ms",
        "self_wall_ms",
        "counters",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.cum_sim_ms = 0.0
        self.self_sim_ms = 0.0
        self.cum_wall_ms = 0.0
        self.self_wall_ms = 0.0
        self.counters: dict[str, float] = {}

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "calls": self.calls,
            "cum_sim_ms": round(self.cum_sim_ms, 6),
            "self_sim_ms": round(self.self_sim_ms, 6),
            "cum_wall_ms": round(self.cum_wall_ms, 6),
            "self_wall_ms": round(self.self_wall_ms, 6),
        }
        if self.counters:
            payload["counters"] = {
                key: self.counters[key] for key in sorted(self.counters)
            }
        return payload

    def __repr__(self) -> str:
        return (
            f"<StageStats {self.name!r} calls={self.calls} "
            f"cum_sim={self.cum_sim_ms:.3f}ms>"
        )


class StageFrame:
    """One open stage; a context manager bound to its profiler."""

    __slots__ = ("name", "_profiler", "_start", "own_sim", "child_sim",
                 "child_wall")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self.name = name
        self._profiler = profiler
        self._start = 0.0
        self.own_sim = 0.0
        self.child_sim = 0.0
        self.child_wall = 0.0

    def __enter__(self) -> "StageFrame":
        self._profiler._push(self)
        self._start = self._profiler._clock()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        elapsed_ms = (self._profiler._clock() - self._start) * 1000.0
        self._profiler._pop(self, elapsed_ms)
        return False

    def add_sim(self, sim_ms: float) -> None:
        """Charge simulated milliseconds to this frame."""
        self.own_sim += sim_ms

    def count(self, counter: str, n: float = 1) -> None:
        """Bump an operator counter on this frame's stage."""
        self._profiler.count(self.name, counter, n)


class Profiler:
    """Aggregating hierarchical profiler (see the module docstring)."""

    enabled = True

    def __init__(
        self,
        top_k: int = 10,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if top_k < 1:
            raise ValueError(f"top_k must be positive: {top_k}")
        self.top_k = top_k
        self._clock = clock
        self._stats: dict[str, StageStats] = {}
        self._stack: list[StageFrame] = []
        self._open_by_name: dict[str, int] = {}
        #: Slowest queries, sorted slowest first.
        self._slowest: list[dict[str, Any]] = []

    # ------------------------------------------------------------ stages
    def stage(self, name: str) -> StageFrame:
        """A new stage frame; aggregates into ``name`` when exited."""
        return StageFrame(self, name)

    def _stats_for(self, name: str) -> StageStats:
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = StageStats(name)
        return stats

    def _push(self, frame: StageFrame) -> None:
        self._stack.append(frame)
        self._open_by_name[frame.name] = (
            self._open_by_name.get(frame.name, 0) + 1
        )

    def _pop(self, frame: StageFrame, elapsed_ms: float) -> None:
        # Tolerate out-of-order exits by unwinding to the frame, the
        # same discipline the span tracer applies.
        while self._stack:
            top = self._stack.pop()
            self._open_by_name[top.name] -= 1
            if top is frame:
                break
        stats = self._stats_for(frame.name)
        stats.calls += 1
        total_sim = frame.own_sim + frame.child_sim
        stats.self_sim_ms += frame.own_sim
        stats.self_wall_ms += max(0.0, elapsed_ms - frame.child_wall)
        if self._open_by_name.get(frame.name, 0) == 0:
            # Outermost frame of this name: cumulative time counts once
            # however deep the re-entrancy went.
            stats.cum_sim_ms += total_sim
            stats.cum_wall_ms += elapsed_ms
        if self._stack:
            parent = self._stack[-1]
            parent.child_sim += total_sim
            parent.child_wall += elapsed_ms

    # ------------------------------------------------------ accumulation
    def accumulate(self, name: str, sim_ms: float) -> None:
        """Charge simulated time to ``name``, open frame or not.

        The single accumulation path behind
        :meth:`~repro.obs.instrument.QueryObservation._accumulate`:
        when a frame with that name is open the charge lands on it
        (and is counted at frame exit); otherwise the charge lands
        flat, counting one call — a purely simulated step with no
        interesting wall time ("parse", "read", "transfer").
        """
        if self._open_by_name.get(name, 0):
            for frame in reversed(self._stack):
                if frame.name == name:
                    frame.own_sim += sim_ms
                    return
        self.add_sim(name, sim_ms)

    def add_sim(self, name: str, sim_ms: float, calls: int = 1) -> None:
        """Flat accumulation: ``sim_ms`` and ``calls`` onto ``name``."""
        stats = self._stats_for(name)
        stats.calls += calls
        stats.self_sim_ms += sim_ms
        stats.cum_sim_ms += sim_ms

    def hit(self, name: str, n: int = 1) -> None:
        """Count ``n`` calls of a stage that carries no time of its own
        (cache mutation events, journal writes)."""
        self._stats_for(name).calls += n

    def count(self, name: str, counter: str, n: float = 1) -> None:
        """Bump an operator counter (rows, regions, tuples) on a stage."""
        counters = self._stats_for(name).counters
        counters[counter] = counters.get(counter, 0) + n

    # ---------------------------------------------------- slowest queries
    def record_query(
        self,
        index: int,
        template_id: str,
        sim_ms: float,
        status: str = "",
    ) -> None:
        """Offer one finished query to the top-K slowest capture.

        Kept slowest-first; once full, the fastest retained query is
        evicted when a slower one arrives.
        """
        entry = {
            "index": index,
            "template": template_id,
            "response_sim_ms": round(sim_ms, 6),
        }
        if status:
            entry["status"] = status
        slowest = self._slowest
        position = len(slowest)
        while position > 0 and (
            float(slowest[position - 1]["response_sim_ms"]) < sim_ms
        ):
            position -= 1
        slowest.insert(position, entry)
        if len(slowest) > self.top_k:
            slowest.pop()

    # ------------------------------------------------------------ export
    def snapshot(self) -> dict[str, Any]:
        """The whole profile as a JSON-able dict."""
        return {
            "enabled": True,
            "top_k": self.top_k,
            "stages": {
                name: self._stats[name].to_dict()
                for name in sorted(self._stats)
            },
            "slowest_queries": [dict(entry) for entry in self._slowest],
        }

    def render_text(self, sort: str = "cum") -> str:
        """A ``pprof``-style flat table of every stage.

        ``sort`` orders rows by ``cum`` (cumulative simulated time,
        the default), ``self`` (self simulated time), ``wall``
        (cumulative wall time), or ``calls``.
        """
        key_for: dict[str, Callable[[StageStats], float]] = {
            "cum": lambda s: s.cum_sim_ms,
            "self": lambda s: s.self_sim_ms,
            "wall": lambda s: s.cum_wall_ms,
            "calls": lambda s: float(s.calls),
        }
        key = key_for.get(sort)
        if key is None:
            raise ValueError(
                f"unknown sort {sort!r}; use cum, self, wall, or calls"
            )
        header = (
            f"{'stage':<18} {'calls':>8} {'self_sim_ms':>12} "
            f"{'cum_sim_ms':>12} {'self_wall_ms':>13} {'cum_wall_ms':>12}"
        )
        lines = [f"profile (sorted by {sort})", header, "-" * len(header)]
        ordered = sorted(
            self._stats.values(), key=key, reverse=True
        )
        for stats in ordered:
            lines.append(
                f"{stats.name:<18} {stats.calls:>8} "
                f"{stats.self_sim_ms:>12.3f} {stats.cum_sim_ms:>12.3f} "
                f"{stats.self_wall_ms:>13.3f} {stats.cum_wall_ms:>12.3f}"
            )
        counter_lines = []
        for stats in ordered:
            for counter in sorted(stats.counters):
                counter_lines.append(
                    f"{stats.name}.{counter:<24} "
                    f"{stats.counters[counter]:>14g}"
                )
        if counter_lines:
            lines.append("")
            lines.append("operator counters")
            lines.extend(counter_lines)
        if self._slowest:
            lines.append("")
            lines.append(f"slowest queries (top {self.top_k})")
            for entry in self._slowest:
                status = entry.get("status", "")
                suffix = f" [{status}]" if status else ""
                lines.append(
                    f"#{entry['index']} {entry['template']}"
                    f" {entry['response_sim_ms']:.3f}ms{suffix}"
                )
        return "\n".join(lines) + "\n"

    def stats(self, name: str) -> StageStats | None:
        """The aggregated stats of one stage, if it ever ran."""
        return self._stats.get(name)

    def reset(self) -> None:
        """Drop every aggregate and the slowest-query capture."""
        self._stats.clear()
        self._slowest.clear()


class _NullFrame:
    """The shared do-nothing frame the :class:`NullProfiler` hands out."""

    __slots__ = ()
    name = ""
    own_sim = 0.0
    child_sim = 0.0
    child_wall = 0.0

    def __enter__(self) -> "_NullFrame":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False

    def add_sim(self, sim_ms: float) -> None:
        return None

    def count(self, counter: str, n: float = 1) -> None:
        return None

    def __repr__(self) -> str:
        return "<NullFrame>"


#: The singleton no-op frame.
NULL_FRAME = _NullFrame()


class NullProfiler:
    """The disabled profiler: aggregates nothing, stores nothing."""

    enabled = False
    top_k = 0

    def stage(self, name: str) -> _NullFrame:
        return NULL_FRAME

    def accumulate(self, name: str, sim_ms: float) -> None:
        return None

    def add_sim(self, name: str, sim_ms: float, calls: int = 1) -> None:
        return None

    def hit(self, name: str, n: int = 1) -> None:
        return None

    def count(self, name: str, counter: str, n: float = 1) -> None:
        return None

    def record_query(
        self,
        index: int,
        template_id: str,
        sim_ms: float,
        status: str = "",
    ) -> None:
        return None

    def snapshot(self) -> dict[str, Any]:
        return {
            "enabled": False,
            "top_k": 0,
            "stages": {},
            "slowest_queries": [],
        }

    def render_text(self, sort: str = "cum") -> str:
        return "profiler disabled (no-op default)\n"

    def stats(self, name: str) -> StageStats | None:
        return None

    def reset(self) -> None:
        return None


#: The singleton no-op profiler instrumentation defaults to.
NULL_PROFILER = NullProfiler()
