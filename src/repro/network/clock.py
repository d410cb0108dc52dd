"""A simulated millisecond clock."""

from __future__ import annotations


class SimulatedClock:
    """Monotonic simulated time in milliseconds.

    Components advance the clock by the cost of their work; nothing ever
    reads the real time, so experiment results are reproducible across
    machines and runs.
    """

    def __init__(self) -> None:
        self._now_ms = 0.0

    @property
    def now_ms(self) -> float:
        return self._now_ms

    def advance(self, delta_ms: float) -> None:
        if delta_ms < 0:
            raise ValueError(f"cannot advance time by {delta_ms} ms")
        self._now_ms += delta_ms

    def measure(self) -> "_Span":
        """Context-free span helper: ``span = clock.measure()`` ...
        ``elapsed = span.elapsed()``."""
        return _Span(self)


class _Span:
    def __init__(self, clock: SimulatedClock) -> None:
        self._clock = clock
        self._start = clock.now_ms

    def elapsed(self) -> float:
        return self._clock.now_ms - self._start
