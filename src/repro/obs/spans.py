"""Structured spans: nested per-query lifecycle timing.

A *span* is one named stage of work with a wall-clock duration, an
accumulated simulated-clock charge, free-form attributes, and child
spans.  The tracer keeps an open-span stack (``span()`` nests under
whatever is currently open) and a bounded ring buffer of finished root
spans for the ``/trace/recent`` endpoint and JSONL export.

Every recorded span carries distributed-tracing identity: a 128-bit
trace id shared by the whole tree and a 64-bit span id of its own
(:mod:`repro.obs.propagation`).  A root span normally mints a fresh
trace id; opened under :meth:`SpanTracer.remote_context` it instead
joins the caller's trace — that is how the origin's execution spans
parent under the proxy's ``origin`` phase across the HTTP hop.
:meth:`SpanTracer.current_traceparent` renders the W3C header the
HTTP client injects on outbound requests.

Two tracers share the interface:

* :class:`SpanTracer` — records everything;
* :class:`NullTracer` — the off switch: ``span()`` hands back a shared
  do-nothing span, so instrumented code pays one method call and no
  allocation per stage.  This is the default on the hot path.

Thread model: the *open-span stack* (and the adopted remote parent)
is per-thread state, so each thread nests its own spans.  The
finished-root ring buffer and the ``spans_started`` counter belong to
the tracer's owner, which calls it from one thread at a time.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from types import TracebackType
from typing import Any, Callable, Iterator

from repro.obs.propagation import IdGenerator, TraceContext


class Span:
    """One stage of work; a context manager bound to its tracer."""

    __slots__ = (
        "name",
        "attrs",
        "children",
        "wall_ms",
        "sim_ms",
        "trace_id",
        "span_id",
        "parent_id",
        "_tracer",
        "_start",
    )

    def __init__(
        self, tracer: "SpanTracer", name: str, attrs: dict[str, Any]
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.wall_ms = 0.0
        self.sim_ms = 0.0
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self.parent_id: str | None = None
        self._tracer = tracer
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self._start = self._tracer._clock()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        self.wall_ms = (self._tracer._clock() - self._start) * 1000.0
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._pop(self)
        return False

    def annotate(self, **attrs: Any) -> "Span":
        """Attach attributes (status, counts, ...) to this span."""
        self.attrs.update(attrs)
        return self

    def charge(self, sim_ms: float) -> "Span":
        """Accumulate simulated-clock milliseconds onto this span."""
        self.sim_ms += sim_ms
        return self

    def context(self) -> TraceContext | None:
        """This span's trace context (``None`` before it is entered)."""
        if self.trace_id is None or self.span_id is None:
            return None
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "wall_ms": round(self.wall_ms, 6),
            "sim_ms": round(self.sim_ms, 6),
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.span_id is not None:
            payload["span_id"] = self.span_id
        if self.parent_id is not None:
            payload["parent_id"] = self.parent_id
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.children:
            payload["children"] = [c.to_dict() for c in self.children]
        return payload

    def __repr__(self) -> str:
        return (
            f"<Span {self.name!r} wall={self.wall_ms:.3f}ms "
            f"sim={self.sim_ms:.3f}ms children={len(self.children)}>"
        )


class SpanTracer:
    """Records nested spans; keeps the last ``capacity`` root spans."""

    enabled = True

    def __init__(
        self,
        capacity: int = 256,
        clock: Callable[[], float] = time.perf_counter,
        ids: IdGenerator | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity}")
        self._clock = clock
        self._ids = ids if ids is not None else IdGenerator()
        #: Per-thread open-span stack and adopted remote parent.
        self._local = threading.local()
        self._finished: deque[Span] = deque(maxlen=capacity)
        self.spans_started = 0

    # ---------------------------------------------------- per-thread state
    def _open_stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @property
    def _remote_parent(self) -> TraceContext | None:
        parent = getattr(self._local, "remote_parent", None)
        assert parent is None or isinstance(parent, TraceContext)
        return parent

    @property
    def capacity(self) -> int:
        """The ring-buffer bound on retained root spans."""
        maxlen = self._finished.maxlen
        assert maxlen is not None
        return maxlen

    # ------------------------------------------------------------ record
    def span(self, name: str, **attrs: Any) -> Span:
        """A new span; nests under the currently open span when entered."""
        return Span(self, name, attrs)

    def event(self, name: str, sim_ms: float = 0.0, **attrs: Any) -> None:
        """A zero-wall-duration child span (an instantaneous charge)."""
        with self.span(name, **attrs) as span:
            span.charge(sim_ms)

    def _push(self, span: Span) -> None:
        span.span_id = self._ids.span_id()
        stack = self._open_stack()
        remote = self._remote_parent
        if stack:
            parent = stack[-1]
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
        elif remote is not None:
            span.trace_id = remote.trace_id
            span.parent_id = remote.span_id
        else:
            span.trace_id = self._ids.trace_id()
        stack.append(span)
        self.spans_started += 1

    def _pop(self, span: Span) -> None:
        # Tolerate out-of-order exits by unwinding to the span.
        stack = self._open_stack()
        while stack:
            top = stack.pop()
            if top is span:
                break
        if stack:
            stack[-1].children.append(span)
        else:
            self._finished.append(span)

    # ------------------------------------------------------- propagation
    def current_context(self) -> TraceContext | None:
        """The innermost open span's trace context, if any.

        With no span open but a remote parent adopted, the remote
        context itself is current — an instrumentation-free stretch of
        a request still belongs to its caller's trace.
        """
        stack = self._open_stack()
        if stack:
            return stack[-1].context()
        return self._remote_parent

    def current_traceparent(self) -> str | None:
        """The W3C ``traceparent`` header for the current context."""
        context = self.current_context()
        return None if context is None else context.to_traceparent()

    @contextmanager
    def remote_context(
        self, context: TraceContext | None
    ) -> Iterator[None]:
        """Adopt a caller's trace context for the duration of the block.

        Root spans opened inside join ``context``'s trace with the
        caller's span as their parent.  ``None`` is a no-op, so the
        receiving side can pass ``parse_traceparent(...)`` straight in.
        """
        if context is None:
            yield
            return
        previous = self._remote_parent
        self._local.remote_parent = context
        try:
            yield
        finally:
            self._local.remote_parent = previous

    # ------------------------------------------------------------ export
    def recent(self, n: int | None = None) -> list[dict[str, Any]]:
        """The most recent finished root spans, oldest first.

        ``n`` bounds the result; zero and negative values yield [].
        """
        roots = list(self._finished)
        if n is not None:
            roots = roots[-n:] if n > 0 else []
        return [root.to_dict() for root in roots]

    def find_trace(self, trace_id: str) -> list[dict[str, Any]]:
        """All retained root spans belonging to one trace id."""
        return [
            root.to_dict()
            for root in self._finished
            if root.trace_id == trace_id
        ]

    def iter_jsonl(self) -> Iterator[str]:
        for root in self._finished:
            yield json.dumps(root.to_dict(), sort_keys=True)

    def export_jsonl(self) -> str:
        """Finished root spans as JSON Lines (one root per line)."""
        lines = list(self.iter_jsonl())
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path: Any) -> int:
        """Append finished roots to ``path``; returns spans written."""
        lines = list(self.iter_jsonl())
        if lines:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
        return len(lines)

    def clear(self) -> None:
        self._finished.clear()


class _NullSpan:
    """The shared do-nothing span the :class:`NullTracer` hands out."""

    __slots__ = ()
    name = ""
    wall_ms = 0.0
    sim_ms = 0.0
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None
    attrs: dict[str, Any] = {}
    children: list["_NullSpan"] = []

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def charge(self, sim_ms: float) -> "_NullSpan":
        return self

    def context(self) -> TraceContext | None:
        return None

    def to_dict(self) -> dict[str, Any]:
        return {}

    def __repr__(self) -> str:
        return "<NullSpan>"


#: The singleton no-op span.
NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: emits nothing, stores nothing."""

    enabled = False
    spans_started = 0
    capacity = 0

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, sim_ms: float = 0.0, **attrs: Any) -> None:
        return None

    def current_context(self) -> TraceContext | None:
        return None

    def current_traceparent(self) -> str | None:
        return None

    @contextmanager
    def remote_context(
        self, context: TraceContext | None
    ) -> Iterator[None]:
        yield

    def recent(self, n: int | None = None) -> list[dict[str, Any]]:
        return []

    def find_trace(self, trace_id: str) -> list[dict[str, Any]]:
        return []

    def iter_jsonl(self) -> Iterator[str]:
        return iter(())

    def export_jsonl(self) -> str:
        return ""

    def write_jsonl(self, path: Any) -> int:
        return 0

    def clear(self) -> None:
        return None
