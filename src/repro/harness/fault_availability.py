"""Availability under origin faults: what caching buys when the
origin goes away.

The paper measures caching as a latency win.  This experiment measures
the *robustness* win the same cache provides: with the resilience
layer (retry, circuit breaker, stale-serve degradation), a semantic
cache keeps answering queries through an origin outage that makes a
cacheless proxy fail every request.

Protocol, per caching scheme:

1. **Calibrate** — replay the measured trace fault-free with a fixed
   think time between queries and read the simulated end time ``T``
   off the proxy's clock.  Response times differ across schemes, so
   each scheme gets its own ``T``; the outage is placed at the same
   *fractional* position for all of them.
2. **Fault** — replay the same trace on a fresh proxy with a seeded
   :class:`~repro.faults.plan.FaultPlan` installed: one outage window
   covering ``[0.35 T, 0.55 T)`` plus a small transient error rate
   over the whole run (exercising the retry path outside the outage).
3. **Report** — the answered fraction (served + degraded + partial),
   p95 response time, per-outcome counts, total retries, and breaker
   opens.

Everything is simulated-clock-driven and seeded, so the whole table
is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.core.schemes import CachingScheme
from repro.core.stats import QueryOutcome
from repro.faults.plan import FaultPlan, OutageWindow
from repro.harness.config import ExperimentScale
from repro.harness.render import Column, as_dict, render_table
from repro.harness.runner import ExperimentRunner, Scenario

#: The schemes compared: no caching, passive, and two active schemes.
SCHEMES = (
    CachingScheme.NO_CACHE,
    CachingScheme.PASSIVE,
    CachingScheme.CONTAINMENT_ONLY,
    CachingScheme.FULL_SEMANTIC,
)

#: Where the outage sits, as fractions of the calibrated trace time.
OUTAGE_WINDOW_FRACTIONS = (0.35, 0.55)


@dataclass(frozen=True)
class SchemeAvailability:
    """One scheme's measurements under the fault plan."""

    scheme: CachingScheme
    answered_fraction: float
    p95_ms: float
    fault_free_p95_ms: float
    outcome_counts: dict[str, int]
    total_retries: int
    breaker_opens: int
    outage_ms: tuple[float, float]

    def to_dict(self) -> dict:
        return as_dict(self)


def _count(outcome: QueryOutcome) -> Callable[[SchemeAvailability], int]:
    return lambda row: row.outcome_counts.get(outcome.value, 0)


COLUMNS: tuple[Column, ...] = (
    ("Scheme", lambda row: row.scheme.value),
    ("answered", lambda row: row.answered_fraction),
    ("p95 ms", lambda row: row.p95_ms),
    ("served", _count(QueryOutcome.SERVED)),
    ("degraded", _count(QueryOutcome.DEGRADED)),
    ("partial", _count(QueryOutcome.PARTIAL)),
    ("failed", _count(QueryOutcome.FAILED)),
    ("retries", lambda row: row.total_retries),
    ("opens", lambda row: row.breaker_opens),
)


@dataclass(frozen=True)
class FaultAvailabilityResult:
    """The availability table across caching schemes."""

    schemes: dict[str, SchemeAvailability]
    think_time_ms: float
    error_rate: float
    seed: int

    @property
    def answered_fraction(self) -> dict[str, float]:
        return {
            label: row.answered_fraction
            for label, row in self.schemes.items()
        }

    def to_dict(self) -> dict:
        return as_dict(self)

    def render(self) -> str:
        return render_table(
            "Fault availability: answered fraction per scheme under an "
            f"origin outage covering {OUTAGE_WINDOW_FRACTIONS[0]:.0%}-"
            f"{OUTAGE_WINDOW_FRACTIONS[1]:.0%} of the trace",
            COLUMNS,
            list(self.schemes.values()),
        )


def run_fault_availability(
    runner: ExperimentRunner | None = None,
    scale: ExperimentScale | None = None,
    think_time_ms: float = 1_000.0,
    error_rate: float = 0.02,
    seed: int = 7,
) -> FaultAvailabilityResult:
    runner = runner or ExperimentRunner(scale or ExperimentScale.default())
    schemes: dict[str, SchemeAvailability] = {}
    for scheme in SCHEMES:
        calibration = Scenario(scheme, think_time_ms=think_time_ms)
        fault_free = runner.play(calibration)
        outage = OutageWindow(
            start_ms=OUTAGE_WINDOW_FRACTIONS[0] * fault_free.end_ms,
            end_ms=OUTAGE_WINDOW_FRACTIONS[1] * fault_free.end_ms,
        )
        plan = FaultPlan(
            seed=seed, outages=(outage,), error_rate=error_rate
        )
        faulted = runner.play(replace(calibration, faults=plan))
        stats = faulted.stats
        schemes[scheme.value] = SchemeAvailability(
            scheme=scheme,
            answered_fraction=stats.answered_fraction,
            p95_ms=stats.response_percentile(0.95),
            fault_free_p95_ms=fault_free.stats.response_percentile(0.95),
            outcome_counts={
                outcome.value: count
                for outcome, count in stats.outcome_counts().items()
            },
            total_retries=stats.total_retries,
            breaker_opens=faulted.deployment.breaker.opens,
            outage_ms=(outage.start_ms, outage.end_ms),
        )
    return FaultAvailabilityResult(
        schemes=schemes,
        think_time_ms=think_time_ms,
        error_rate=error_rate,
        seed=seed,
    )
