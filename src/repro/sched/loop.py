"""A deterministic discrete-event loop on a virtual time axis.

The loop owns its own ``now_ms`` — *event time* — and never touches
the proxy's work clock.  Events are ``(time_ms, seq, fn)`` triples in
a heap: ties dispatch in submission order, so a run is reproducible
down to the callback sequence.  Scheduling from inside a callback is
the normal way to express closed loops.
"""

from __future__ import annotations

import heapq
from typing import Callable


class EventLoop:
    """Single-threaded discrete-event scheduler."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._now_ms = 0.0
        self._seq = 0
        #: Events dispatched over the loop's lifetime (diagnostics).
        self.dispatched = 0

    @property
    def now_ms(self) -> float:
        """Current event time (virtual ms since the loop started)."""
        return self._now_ms

    @property
    def pending(self) -> int:
        """Events scheduled but not yet dispatched."""
        return len(self._heap)

    def at(self, time_ms: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` at absolute event time ``time_ms``.

        A time already in the past is clamped to *now*: events never
        run the clock backwards.
        """
        self._seq += 1
        when = max(float(time_ms), self._now_ms)
        heapq.heappush(self._heap, (when, self._seq, fn))

    def after(self, delay_ms: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` ``delay_ms`` after the current event time."""
        if delay_ms < 0:
            raise ValueError(f"negative delay: {delay_ms}")
        self.at(self._now_ms + delay_ms, fn)

    def run(
        self,
        until_ms: float | None = None,
        max_events: int | None = None,
    ) -> int:
        """Dispatch events in time order; returns how many ran.

        Stops when the heap is empty, when the next event lies beyond
        ``until_ms`` (that event stays scheduled), or after
        ``max_events`` dispatches — whichever comes first.
        """
        ran = 0
        while max_events is None or ran < max_events:
            if not self._heap:
                break
            when, _seq, fn = self._heap[0]
            if until_ms is not None and when > until_ms:
                break
            heapq.heappop(self._heap)
            self._now_ms = when
            self.dispatched += 1
            fn()
            ran += 1
        return ran
