"""Shard availability: what a mid-trace shard crash costs the tier.

The paper's proxy is one process; the sharded tier asks what happens
when the cache is spread across N workers and one of them dies with a
full cache.  For each shard count the experiment runs three scenarios
on identical seeded load:

* **baseline** — no fault; the per-count reference for aggregate hit
  ratio and answered fraction;
* **failover** — the busiest shard crashes mid-trace with health-aware
  failover and warm handoff on: its durable snapshot+journal image is
  replayed into the ring successor and traffic re-routes, so the
  answered fraction should stay near 1.0 and the post-handoff hit
  ratio near the baseline's;
* **control** — the same crash with failover *and* handoff disabled:
  every query owned by the dead shard sheds, making the availability
  collapse the failover path prevents visible in the same table.

Each cell is one runner :class:`~repro.harness.runner.Scenario`: a
fresh N-shard tier (each shard with its own admission controller and
persistence directory) under the shard-crash plan, driven by a seeded
closed-loop population on one deterministic event loop.  The run is
marked at the crash instant and the remaining events drain — the
post-crash slice is what the *post-handoff* columns aggregate.
Everything runs on event time, so the whole table is reproducible bit
for bit.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.admission import AdmissionConfig
from repro.cluster import RouterConfig, Shard, ShardRouter
from repro.core.schemes import CachingScheme
from repro.core.stats import QueryOutcome, QueryRecord, TraceStats
from repro.faults.shard import ShardCrashPlan, ShardFaultWindow
from repro.harness.config import ExperimentScale
from repro.harness.render import Column, as_dict, render_table
from repro.harness.runner import (
    REGION_CELL,
    ExperimentRunner,
    Playback,
    Scenario,
)
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID
from repro.workload.closed_loop import ClosedLoopConfig

#: Shard-count ladders: the quick ladder keeps the test suite fast.
QUICK_SHARD_COUNTS = (1, 2, 4)
FULL_SHARD_COUNTS = (1, 2, 4, 8)

#: The three scenarios every shard count runs.
SCENARIOS = ("baseline", "failover", "control")

#: Per-shard admission: generous enough that backpressure is not the
#: story (the saturation bench owns that axis), present so the tier
#: exercises the real queue path and sheds structurally when a control
#: run drives all of a dead shard's traffic into one place.
SHARD_ADMISSION = AdmissionConfig(
    max_inflight=8,
    max_queue_depth=32,
    queue_deadline_ms=15_000.0,
    overload_threshold=256,
    overload_cooldown_ms=2_000.0,
)

#: When the scheduled crash fires, in event-loop milliseconds.
CRASH_MS = 15_000.0


@dataclass(frozen=True)
class AvailabilityPoint:
    """One (shard count, scenario) cell of the availability table."""

    shards: int
    scenario: str  # "baseline" | "failover" | "control"
    crashed_shard: str | None
    records: int
    answered_fraction: float
    hit_ratio: float  # among answered records, whole run
    post_records: int
    post_answered_fraction: float
    post_hit_ratio: float  # among answered records after the crash mark
    shed: int
    tunneled: int
    failovers: int
    handoff_entries: int
    handoff_replayed: int
    end_ms: float

    def to_dict(self) -> dict:
        return as_dict(self)


COLUMNS: tuple[Column, ...] = (
    ("shards", lambda point: point.shards),
    ("scenario", lambda point: point.scenario),
    ("records", lambda point: point.records),
    ("answered", lambda point: point.answered_fraction),
    ("hit ratio", lambda point: point.hit_ratio),
    ("post answered", lambda point: point.post_answered_fraction),
    ("post hit", lambda point: point.post_hit_ratio),
    ("shed", lambda point: point.shed),
    ("tunnel", lambda point: point.tunneled),
    ("failovers", lambda point: point.failovers),
    (
        "handoff",
        lambda point: f"{point.handoff_replayed}/{point.handoff_entries}",
    ),
)


@dataclass(frozen=True)
class ShardAvailabilityResult:
    """The availability table across the shard-count ladder."""

    points: tuple[AvailabilityPoint, ...]
    crash_ms: float
    region_cell: float
    n_clients: int
    queries_per_client: int
    think_time_ms: float
    seed: int

    def point(self, shards: int, scenario: str) -> AvailabilityPoint:
        for point in self.points:
            if point.shards == shards and point.scenario == scenario:
                return point
        raise KeyError(f"no point for {shards} shards / {scenario!r}")

    def to_dict(self) -> dict:
        return as_dict(self)

    def render(self) -> str:
        return render_table(
            "Shard availability: mid-trace crash at "
            f"{self.crash_ms:.0f} ms with/without health-aware failover",
            COLUMNS,
            self.points,
        )


def shard_counts_for(scale: ExperimentScale) -> tuple[int, ...]:
    return QUICK_SHARD_COUNTS if scale.name == "quick" else FULL_SHARD_COUNTS


def _hit_ratio_answered(records: list[QueryRecord]) -> float:
    """Hit ratio among *answered* records only.

    ``TraceStats.hit_ratio`` counts every record that skipped the
    origin — which would credit sheds (they never contact anything) as
    hits.  Availability runs produce sheds by design, so the tier's
    cache quality is measured over the queries that returned tuples.
    """
    return TraceStats([r for r in records if r.answered]).hit_ratio


def busiest_shard(runner: ExperimentRunner, n_shards: int) -> str:
    """The shard owning the most trace queries — the worst one to lose.

    Computed from ring primaries alone via a throwaway cache-less probe
    router (no serving, no rng draws, no persistence), so every
    scenario of a shard count agrees on the victim before any load runs.
    """
    probe = ShardRouter(
        tuple(
            Shard(
                f"shard-{index}",
                runner.build_proxy(CachingScheme.NO_CACHE, "array"),
            )
            for index in range(n_shards)
        ),
        config=RouterConfig(
            region_partitions={RADIAL_TEMPLATE_ID: REGION_CELL}
        ),
    )
    counts: dict[str, int] = {}
    for query in runner.trace:
        bound = runner.origin.templates.bind(
            query.template_id, query.param_dict()
        )
        primary = probe.ring.primary(probe.route_key(bound))
        counts[primary] = counts.get(primary, 0) + 1
    return max(sorted(counts), key=lambda shard_id: counts[shard_id])


def _scenarios(
    n_shards: int,
    victim: str,
    crash_ms: float,
    load: ClosedLoopConfig,
    root: Path,
) -> dict[str, Scenario]:
    """The three scenarios of one shard count, keyed by name; each
    journals into its own directory under ``root``."""
    crash = (ShardFaultWindow(victim, "crash", crash_ms),)
    return {
        name: Scenario(
            CachingScheme.FULL_SEMANTIC,
            shards=n_shards,
            admission=SHARD_ADMISSION,
            persistence=root / name,
            failover=name != "control",
            closed_loop=load,
            mark_ms=crash_ms,
            faults=ShardCrashPlan(
                seed=load.seed, faults=() if name == "baseline" else crash
            ),
        )
        for name in SCENARIOS
    }


def _point(
    name: str, scenario: Scenario, victim: str, played: Playback
) -> AvailabilityPoint:
    """One (shard count, scenario) cell, read off its playback."""
    router = played.deployment
    stats = played.stats
    post = TraceStats(stats.records[played.marked:])
    counts = stats.outcome_counts()
    tunnel_metric = router.registry.get("router_tunnel_total")
    failover_metric = router.registry.get("router_failover_total")
    return AvailabilityPoint(
        shards=scenario.shards,
        scenario=name,
        crashed_shard=victim if name != "baseline" else None,
        records=len(stats.records),
        answered_fraction=stats.answered_fraction,
        hit_ratio=_hit_ratio_answered(stats.records),
        post_records=len(post.records),
        post_answered_fraction=post.answered_fraction,
        post_hit_ratio=_hit_ratio_answered(post.records),
        shed=counts.get(QueryOutcome.SHED, 0)
        + counts.get(QueryOutcome.QUEUED_TIMEOUT, 0),
        tunneled=int(tunnel_metric.total()) if tunnel_metric else 0,
        failovers=int(failover_metric.total()) if failover_metric else 0,
        handoff_entries=sum(h.entries for h in router.handoffs),
        handoff_replayed=sum(h.replayed for h in router.handoffs),
        end_ms=played.end_ms,
    )


def _cells(
    runner: ExperimentRunner,
    n_shards: int,
    names: tuple[str, ...],
    crash_ms: float,
    load: ClosedLoopConfig,
) -> list[AvailabilityPoint]:
    """The named cells of one shard count; they share one victim."""
    victim = busiest_shard(runner, n_shards)
    with tempfile.TemporaryDirectory(prefix="shard-avail-") as tmp:
        scenarios = _scenarios(n_shards, victim, crash_ms, load, Path(tmp))
        return [
            _point(name, scenarios[name], victim, runner.play(scenarios[name]))
            for name in names
        ]


def run_scenario(
    runner: ExperimentRunner,
    n_shards: int,
    scenario: str,
    crash_ms: float,
    n_clients: int,
    queries_per_client: int,
    think_time_ms: float,
    seed: int,
) -> AvailabilityPoint:
    """One (shard count, scenario) cell on a fresh tier and loop."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; use {SCENARIOS}")
    load = ClosedLoopConfig(
        n_clients=n_clients,
        queries_per_client=queries_per_client,
        think_time_ms=think_time_ms,
        seed=seed,
    )
    return _cells(runner, n_shards, (scenario,), crash_ms, load)[0]


def run_shard_availability(
    runner: ExperimentRunner | None = None,
    scale: ExperimentScale | None = None,
    shard_counts: tuple[int, ...] | None = None,
    crash_ms: float = CRASH_MS,
    n_clients: int = 40,
    queries_per_client: int = 10,
    think_time_ms: float = 3_000.0,
    seed: int = 339,
) -> ShardAvailabilityResult:
    runner = runner or ExperimentRunner(scale or ExperimentScale.default())
    load = ClosedLoopConfig(
        n_clients=n_clients,
        queries_per_client=queries_per_client,
        think_time_ms=think_time_ms,
        seed=seed,
    )
    return ShardAvailabilityResult(
        points=tuple(
            point
            for n_shards in shard_counts or shard_counts_for(runner.scale)
            for point in _cells(runner, n_shards, SCENARIOS, crash_ms, load)
        ),
        crash_ms=crash_ms,
        region_cell=REGION_CELL,
        n_clients=n_clients,
        queries_per_client=queries_per_client,
        think_time_ms=think_time_ms,
        seed=seed,
    )
