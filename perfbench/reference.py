"""Machine-speed reference: a fixed pure-Python kernel timed between
queries, so query times can be stated at one reference speed.

The box the benchmark runs on is shared; its speed for a single thread
drifts by up to half within a minute (the same pass of one seed ran at
110 and at 166 q/s minutes apart).  Pure-Python work of any kind slows
and speeds up together, so the benchmark times this kernel every
:data:`PROBE_EVERY_S` of measured query time and divides each query's
time by the speed the kernel showed around it.  The kernel is the
benchmark's own code and calls nothing in the program, so a change to
the program moves the scaled times exactly as it moves the raw ones.

The kernel allocates no garbage-collected containers per iteration, so
probing between queries does not run collections the queries would
otherwise have paid for.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

#: Iterations of the kernel's loop; about 2.5 ms on the machine the
#: benchmark was calibrated on.
KERNEL_ITERATIONS = 2_000
#: Kernel timings per probe; the probe reports their median, so one
#: preempted timing does not move it.
PROBE_REPEATS = 3
#: The kernel's time at reference speed: its median time on a 2-vCPU
#: Intel Xeon container (CPython 3) when that box ran fast.  Scaled
#: times are the times the queries would have taken at this speed.
REFERENCE_PROBE_S = 0.0025
#: Measured query time between two probes.
PROBE_EVERY_S = 0.1


def kernel(iterations: int = KERNEL_ITERATIONS) -> float:
    """Fixed mixed work: float math, dict updates, string formatting."""
    table: dict[int, float] = {}
    total = 0.0
    text = 0
    for i in range(iterations):
        ra = math.radians((i * 7.3) % 360.0)
        dec = math.radians(((i * 3.1) % 180.0) - 90.0)
        x = math.cos(dec) * math.cos(ra)
        y = math.cos(dec) * math.sin(ra)
        z = math.sin(dec)
        key = (i % 97) * 13 + i % 13
        table[key] = table.get(key, 0.0) + x * y - z
        total += math.sqrt(abs(x * x + y * y - z * z))
        if i % 8 == 0:
            text += len(f"<r ra='{ra:.4f}' dec='{dec:.4f}'/>")
    return total + text + sum(table.values())


def probe() -> float:
    """Seconds the kernel takes right now (median of a few timings)."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class SpeedTrack:
    """Probes between queries and scales each query's time.

    ``maybe_probe`` is called after each query, outside its timed
    interval, with that query's raw time.  Once :data:`PROBE_EVERY_S`
    of query time has built up it probes, and the queries since the
    previous probe are scaled by the mean of the two probes around
    them: ``scaled = raw * REFERENCE_PROBE_S / probe``.
    """

    def __init__(self) -> None:
        self.probes = [probe()]
        self.raw_s: list[float] = []
        self.scaled_s: list[float] = []
        self._pending: list[float] = []
        self._pending_s = 0.0

    def maybe_probe(self, raw_s: float) -> None:
        self._pending.append(raw_s)
        self._pending_s += raw_s
        if self._pending_s >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        """Probe now and scale the queries since the last probe."""
        if not self._pending:
            return
        self.probes.append(probe())
        around = (self.probes[-2] + self.probes[-1]) / 2
        factor = REFERENCE_PROBE_S / around
        self.raw_s.extend(self._pending)
        self.scaled_s.extend(value * factor for value in self._pending)
        self._pending = []
        self._pending_s = 0.0

    def speed(self) -> float:
        """The box's median speed over the pass, as a share of the
        reference speed (1.0 = reference, 0.5 = half as fast)."""
        return REFERENCE_PROBE_S / statistics.median(self.probes)


def scaled_interval(work) -> tuple[float, float, object]:
    """Run ``work()`` between two probes.

    Returns (raw seconds, seconds at reference speed, its result); the
    scale is the mean of the probes before and after.
    """
    before = probe()
    start = perf_counter()
    result = work()
    raw = perf_counter() - start
    after = probe()
    return raw, raw * REFERENCE_PROBE_S / ((before + after) / 2), result
