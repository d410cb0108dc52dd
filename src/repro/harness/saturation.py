"""Graceful saturation: throughput and latency as offered load climbs.

The paper's experiments run one query at a time; this experiment asks
what the proxy does when *thousands* of closed-loop clients hit it at
once.  A proxy without admission control would queue without bound and
every response time would diverge.  With the admission layer
(:mod:`repro.admission`) the answer should be *graceful saturation*:

* throughput rises with offered load until the service capacity is
  reached, then stays on a plateau instead of collapsing;
* the latency of queries that *are* admitted stays bounded by the
  configured queue deadline — waiting is capped, not unbounded;
* the excess load is turned away as structured ``shed`` /
  ``queued-timeout`` records, and the shed fraction grows with offered
  load while ``serve`` never raises.

Protocol: each rung of a client ladder (8 clients up to 10,000 at
bench scale) is one runner :class:`~repro.harness.runner.Scenario` — a
fresh admission-controlled proxy driven to completion by a seeded
closed-loop population on a fresh event loop.  Everything runs on the
deterministic event-time axis, so the whole curve is reproducible bit
for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from repro.admission import AdmissionConfig, AdmissionController
from repro.core.schemes import CachingScheme
from repro.core.stats import QueryOutcome
from repro.harness.config import ExperimentScale
from repro.harness.render import Column, as_dict, render_table
from repro.harness.runner import ExperimentRunner, Playback, Scenario
from repro.workload.closed_loop import ClosedLoopConfig

#: Client-population ladders.  The quick ladder keeps unit tests fast;
#: the full ladder's 10,000-client rung is the saturation headline.
QUICK_LADDER = (8, 64, 800)
FULL_LADDER = (8, 64, 800, 2_500, 10_000)

#: The admission configuration under test.  A short queue keeps the
#: worst-case wait (queue_depth / max_inflight service times) well
#: under the deadline, so admitted queries finish inside it.
BENCH_ADMISSION = AdmissionConfig(
    max_inflight=8,
    max_queue_depth=16,
    queue_deadline_ms=15_000.0,
    overload_threshold=64,
    overload_cooldown_ms=2_000.0,
)

#: Outcomes that mean the query was admitted and dispatched (a failed
#: dispatch still occupied a slot; only shed/timed-out queries never ran).
ADMITTED_OUTCOMES = frozenset(
    {
        QueryOutcome.SERVED,
        QueryOutcome.DEGRADED,
        QueryOutcome.PARTIAL,
        QueryOutcome.FAILED,
    }
)


@dataclass(frozen=True)
class LoadPoint:
    """One rung of the ladder: the proxy under ``n_clients`` of load."""

    n_clients: int
    submitted: int
    #: Records the proxy produced — equals ``submitted`` when every
    #: query resolved structurally (the never-raises contract).
    records: int
    served: int
    shed: int
    timed_out: int
    failed: int
    end_ms: float
    throughput_qps: float
    p95_admitted_ms: float
    shed_fraction: float
    overload_opens: int
    #: This rung's live-telemetry snapshots ({"timeseries", "events"})
    #: when the runner's scale enables the recorders; ``None`` otherwise.
    #: Deliberately excluded from :meth:`to_dict` — the stitched
    #: artifacts (:func:`stitch_telemetry`) are the export surface.
    telemetry: dict | None = None

    def to_dict(self) -> dict:
        return as_dict(self, exclude=("telemetry",))


COLUMNS: tuple[Column, ...] = (
    ("clients", lambda point: point.n_clients),
    ("submitted", lambda point: point.submitted),
    ("served", lambda point: point.served),
    ("shed", lambda point: point.shed),
    ("timeout", lambda point: point.timed_out),
    ("qps", lambda point: point.throughput_qps),
    ("p95 adm ms", lambda point: point.p95_admitted_ms),
    ("shed frac", lambda point: point.shed_fraction),
    ("opens", lambda point: point.overload_opens),
)


@dataclass(frozen=True)
class SaturationResult:
    """The throughput-vs-load curve across the client ladder."""

    points: tuple[LoadPoint, ...]
    admission: dict
    queries_per_client: int
    think_time_ms: float
    seed: int

    @property
    def deadline_ms(self) -> float:
        return float(self.admission["config"]["queue_deadline_ms"])

    @property
    def peak_throughput_qps(self) -> float:
        return max(point.throughput_qps for point in self.points)

    @property
    def plateau_fraction(self) -> float:
        """Worst throughput at or past the peak, as a fraction of it.

        1.0 is a flat plateau; a congestion-collapse curve (throughput
        falling as load keeps climbing) drags this toward zero.
        """
        peak = self.peak_throughput_qps
        if peak <= 0:
            return 0.0
        start = max(
            index
            for index, point in enumerate(self.points)
            if point.throughput_qps == peak
        )
        return min(
            point.throughput_qps for point in self.points[start:]
        ) / peak

    def to_dict(self) -> dict:
        return as_dict(
            self, derived=("peak_throughput_qps", "plateau_fraction")
        )

    def render(self) -> str:
        config = self.admission["config"]
        return render_table(
            "Saturation: closed-loop load ladder against "
            f"{config['max_inflight']} service slots "
            f"(queue {config['max_queue_depth']}, "
            f"deadline {self.deadline_ms:.0f} ms)",
            COLUMNS,
            self.points,
        )


def _percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(fraction * len(ordered)) - 1))
    return ordered[rank]


def ladder_for(scale: ExperimentScale) -> tuple[int, ...]:
    return QUICK_LADDER if scale.name == "quick" else FULL_LADDER


def _load_point(n_clients: int, played: Playback) -> LoadPoint:
    """One ladder rung's row, read off its playback."""
    proxy, stats, end_ms = played.deployment, played.stats, played.end_ms
    telemetry = None
    if proxy.timeseries.enabled or proxy.events.enabled:
        series = proxy.timeseries.snapshot()
        series["health"] = proxy.health.evaluate(end_ms)
        telemetry = {
            "timeseries": series,
            "events": proxy.events.snapshot(),
        }
    snapshot = proxy.admission.snapshot()
    counts = {
        outcome.value: count
        for outcome, count in stats.outcome_counts().items()
    }
    served = counts.get(QueryOutcome.SERVED.value, 0)
    shed = counts.get(QueryOutcome.SHED.value, 0)
    timed_out = counts.get(QueryOutcome.QUEUED_TIMEOUT.value, 0)
    admitted_ms = [
        record.response_ms
        for record in stats.records
        if record.outcome in ADMITTED_OUTCOMES
    ]
    submitted = snapshot["submitted"]
    return LoadPoint(
        n_clients=n_clients,
        submitted=submitted,
        records=len(stats.records),
        served=served,
        shed=shed,
        timed_out=timed_out,
        failed=counts.get(QueryOutcome.FAILED.value, 0),
        end_ms=end_ms,
        throughput_qps=served / (end_ms / 1_000.0) if end_ms > 0 else 0.0,
        p95_admitted_ms=_percentile(admitted_ms, 0.95),
        shed_fraction=(shed + timed_out) / submitted if submitted else 0.0,
        overload_opens=snapshot["overload_opens"],
        telemetry=telemetry,
    )


def run_saturation(
    runner: ExperimentRunner | None = None,
    scale: ExperimentScale | None = None,
    ladder: tuple[int, ...] | None = None,
    admission: AdmissionConfig = BENCH_ADMISSION,
    queries_per_client: int = 2,
    think_time_ms: float = 4_000.0,
    seed: int = 339,
) -> SaturationResult:
    runner = runner or ExperimentRunner(scale or ExperimentScale.default())
    rungs = ladder or ladder_for(runner.scale)
    points = tuple(
        _load_point(
            n_clients,
            runner.play(
                Scenario(
                    CachingScheme.FULL_SEMANTIC,
                    admission=admission,
                    closed_loop=ClosedLoopConfig(
                        n_clients=n_clients,
                        queries_per_client=queries_per_client,
                        think_time_ms=think_time_ms,
                        seed=seed,
                    ),
                )
            ),
        )
        for n_clients in rungs
    )
    return SaturationResult(
        points=points,
        admission={"config": AdmissionController(admission).snapshot()["config"]},
        queries_per_client=queries_per_client,
        think_time_ms=think_time_ms,
        seed=seed,
    )


def stitch_telemetry(result: SaturationResult) -> tuple[dict, dict] | None:
    """Concatenate the per-rung telemetry onto one monotone time axis.

    Each rung runs on a fresh proxy whose clock starts at zero, so the
    per-rung samples and events all live near the origin.  Stitching
    shifts every rung's timestamps by the cumulative duration of the
    rungs before it (rounded up to the sampling grid), producing one
    ``timeseries`` document and one ``events`` document whose timeline
    walks the whole ladder — the shed-rate lane rising rung over rung
    is the graceful-saturation picture in time-series form.  Returns
    ``None`` when the rungs carried no telemetry (recorders disabled).
    """
    stitched = [p for p in result.points if p.telemetry is not None]
    if not stitched:
        return None
    first = stitched[0].telemetry["timeseries"]
    interval = float(first.get("interval_ms") or 1_000.0)
    samples: list[dict] = []
    events: list[dict] = []
    counts: Counter[str] = Counter()
    rungs: list[dict] = []
    offset = 0.0
    for point in stitched:
        flight = point.telemetry["events"]
        samples.extend(
            dict(sample, t_ms=sample["t_ms"] + offset)
            for sample in point.telemetry["timeseries"].get("samples", [])
        )
        events.extend(
            dict(event, at_ms=event["at_ms"] + offset)
            for event in flight.get("events", [])
        )
        counts.update(flight.get("counts", {}))
        span = math.ceil(point.end_ms / interval) * interval
        rungs.append(
            {
                "n_clients": point.n_clients,
                "t_start_ms": offset,
                "t_end_ms": offset + span,
                "shed_fraction": point.shed_fraction,
            }
        )
        offset += span
    timeseries_doc = {
        "enabled": True,
        "clock": "sim-ms",
        "interval_ms": interval,
        "capacity": first.get("capacity", 0),
        "lanes": first.get("lanes", {}),
        "samples": samples,
        "rungs": rungs,
        "health": stitched[-1].telemetry["timeseries"].get("health"),
    }
    events_doc = {
        "enabled": True,
        "clock": "sim-ms",
        "capacity": max(
            p.telemetry["events"].get("capacity", 0) for p in stitched
        ),
        "total": sum(p.telemetry["events"].get("total", 0) for p in stitched),
        "counts": dict(sorted(counts.items())),
        "events": events,
        "rungs": rungs,
    }
    return timeseries_doc, events_doc
