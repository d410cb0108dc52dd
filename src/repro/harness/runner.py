"""Shared experiment machinery: build once, run many configurations.

Each run carries the proxy's full metrics-registry snapshot; when the
runner is built with a ``snapshot_dir``, the snapshot is also written
as JSON next to the benchmark results, so performance trajectories can
be diffed across PRs.  The scale's
:class:`~repro.harness.config.ObservabilityConfig` governs the rest of
the run artifacts: a ``decisions-<label>.json`` explain dump (always),
a ``trace-<label>.jsonl`` span export when tracing is enabled, a
``profile-<label>.json`` hot-path profile when profiling is enabled,
and ``timeseries-<label>.json`` / ``events-<label>.json`` live
telemetry (the time series embeds the final health report) when the
telemetry recorders are on.

Every experiment, from Figure 5 to the shard-crash table, runs through
one path: it describes a :class:`Scenario` — a deployment, a load, and
an optional fault plan — and :meth:`ExperimentRunner.play` builds the
deployment fresh, drives the load, and hands back a :class:`Playback`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any

from repro.admission import AdmissionConfig, AdmissionController
from repro.cluster import ClusterFrontend, RouterConfig, Shard, ShardRouter
from repro.core.description import ArrayDescription, RTreeDescription
from repro.core.proxy import FunctionProxy
from repro.core.schemes import CachingScheme
from repro.core.stats import TraceStats
from repro.faults.plan import FaultPlan
from repro.faults.shard import ShardCrashPlan
from repro.harness.config import ExperimentScale
from repro.obs.events import EventRecorder
from repro.obs.instrument import ProxyInstrumentation
from repro.obs.profiling import Profiler
from repro.obs.propagation import IdGenerator
from repro.obs.spans import SpanTracer
from repro.obs.timeseries import ROUTER_LANES, TimeSeriesRecorder
from repro.persistence.atomic import atomic_write_text
from repro.persistence.persister import CachePersister
from repro.sched import EventLoop, ProxyFrontend
from repro.server.origin import OriginServer
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID
from repro.workload.closed_loop import ClosedLoopConfig, ClosedLoopDriver
from repro.workload.generator import generate_radial_trace
from repro.workload.rbe import BrowserEmulator
from repro.workload.trace import Trace

#: The spatial partition cell a shard tier hashes the radial template
#: by (unit-sphere coordinates).  The quick trace's hotspot spans
#: ~0.04-0.13 per axis, so 0.02 yields tens of distinct cells — enough
#: keys to spread one hot template across every shard count the
#: shard-availability ladder uses.
REGION_CELL = 0.02


@dataclass(frozen=True)
class Scenario:
    """One experiment run: a deployment, a load, and an optional fault plan.

    *Deployment*: one proxy, or (``shards=N``) an N-shard tier with an
    uncached origin-tunnel fallback whose ``failover`` switches
    health-aware failover and warm crash handoff together.  Every proxy
    gets its own admission controller when ``admission`` is set, and
    journals into ``persistence`` (a shard into
    ``<persistence>/<shard-id>``), snapshotting every
    ``snapshot_every`` mutations, when that is set.

    *Load*: a sequential replay of the trace slice ``queries`` (default:
    the measured prefix) with ``think_time_ms`` between answers, or a
    ``closed_loop`` client population on a fresh event loop whose
    record count is marked at ``mark_ms``.

    *Faults*: a ``FaultPlan`` on one proxy, a ``ShardCrashPlan`` on a tier.
    """

    scheme: CachingScheme
    description_kind: str = "array"
    cache_fraction: float | None = None
    shards: int | None = None
    admission: AdmissionConfig | None = None
    persistence: Path | None = None
    snapshot_every: int = 64
    failover: bool = True
    queries: slice | None = None
    think_time_ms: float = 0.0
    closed_loop: ClosedLoopConfig | None = None
    mark_ms: float | None = None
    faults: FaultPlan | ShardCrashPlan | None = None

    def __post_init__(self) -> None:
        tier = self.shards is not None
        if tier and self.closed_loop is None:
            raise ValueError("a shard tier needs a closed-loop load")
        crash_plan = isinstance(self.faults, ShardCrashPlan)
        if self.faults is not None and crash_plan != tier:
            raise ValueError(
                "a ShardCrashPlan drives a tier, a FaultPlan one proxy"
            )


@dataclass(frozen=True)
class Playback:
    """What one :meth:`ExperimentRunner.play` observed."""

    stats: TraceStats
    #: Records produced by the scenario's ``mark_ms`` (every record
    #: when the scenario sets no mark).
    marked: int
    #: The end instant: the proxy's clock after a sequential replay,
    #: the event loop's after a closed-loop run.
    end_ms: float
    #: The :class:`FunctionProxy`, or a tier's :class:`ShardRouter`.
    deployment: Any


@dataclass(frozen=True)
class RunResult:
    """One proxy configuration's measurements."""

    scheme: CachingScheme
    description_kind: str  # "array" or "rtree"
    cache_fraction: float | None  # None = unlimited
    stats: TraceStats
    final_cache_bytes: int
    final_cache_entries: int
    metrics_snapshot: dict = field(default_factory=dict)

    def label(self) -> str:
        """A filesystem-safe tag for this configuration."""
        fraction = (
            "unlimited"
            if self.cache_fraction is None
            else str(self.cache_fraction).replace(".", "_")
        )
        return f"{self.scheme.value}-{self.description_kind}-{fraction}"


class ExperimentRunner:
    """Builds the testbed for a scale and replays configurations.

    The origin server and the trace are built once and reused across
    configurations (the origin is stateless with respect to the proxy;
    its query counters are diagnostics only).  The *total result size*
    that anchors the cache-size axis is measured the way the paper
    implies: the bytes a passive cache of unlimited size holds after
    the whole measured trace — i.e. one stored result file per distinct
    query.
    """

    def __init__(
        self,
        scale: ExperimentScale,
        snapshot_dir: str | Path | None = None,
    ) -> None:
        self.scale = scale
        self.snapshot_dir = None if snapshot_dir is None else Path(snapshot_dir)

    # --------------------------------------------------------- building
    @cached_property
    def origin(self) -> OriginServer:
        return OriginServer.skyserver(self.scale.sky, self.scale.server_costs)

    @cached_property
    def trace(self) -> Trace:
        return generate_radial_trace(self.scale.trace)

    @cached_property
    def total_result_bytes(self) -> int:
        """The cache-size axis anchor ("total result size of the trace")."""
        return self.run(CachingScheme.PASSIVE).final_cache_bytes

    def cache_bytes_for(self, fraction: float | None) -> int | None:
        if fraction is None:
            return None
        return int(self.total_result_bytes * fraction)

    # ---------------------------------------------------------- running
    def build_proxy(
        self,
        scheme: CachingScheme,
        description_kind: str = "array",
        cache_fraction: float | None = None,
        **proxy_kwargs,
    ) -> FunctionProxy:
        costs = self.scale.proxy_costs
        if description_kind == "array":
            description = ArrayDescription(costs)
        elif description_kind == "rtree":
            description = RTreeDescription(costs)
        else:
            raise ValueError(
                f"unknown description kind {description_kind!r}; "
                "use 'array' or 'rtree'"
            )
        return FunctionProxy(
            origin=self.origin,
            templates=self.origin.templates,
            scheme=scheme,
            description=description,
            cache_bytes=self.cache_bytes_for(cache_fraction),
            costs=costs,
            topology=self.scale.topology,
            instrumentation=self._build_instrumentation(),
            **proxy_kwargs,
        )

    def _build_instrumentation(self) -> ProxyInstrumentation:
        obs = self.scale.obs
        tracer = None
        if obs.tracing:
            tracer = SpanTracer(
                capacity=obs.trace_capacity,
                ids=IdGenerator(obs.id_seed),
            )
        profiler = None
        if obs.profiling:
            profiler = Profiler(top_k=obs.profile_top_k)
        timeseries = None
        if obs.timeseries:
            timeseries = TimeSeriesRecorder(
                interval_ms=obs.timeseries_interval_ms,
                capacity=obs.timeseries_capacity,
            )
        events = None
        if obs.events:
            events = EventRecorder(capacity=obs.event_capacity)
        return ProxyInstrumentation(
            tracer=tracer,
            decision_capacity=obs.explain_capacity,
            profiler=profiler,
            timeseries=timeseries,
            events=events,
        )

    def play(self, scenario: Scenario) -> Playback:
        """Build the scenario's deployment fresh and drive its load."""
        deployment = self._deploy(scenario)
        if scenario.closed_loop is None:
            assert isinstance(deployment, FunctionProxy)
            queries = scenario.queries
            if queries is None:
                queries = slice(self.scale.measure_queries)
            stats = BrowserEmulator(deployment).run(
                self.trace[queries], think_time_ms=scenario.think_time_ms
            )
            return Playback(
                stats, len(stats), deployment.clock.now_ms, deployment
            )
        frontend = (
            ProxyFrontend(deployment, EventLoop())
            if isinstance(deployment, FunctionProxy)
            else ClusterFrontend(deployment, EventLoop())
        )
        driver = ClosedLoopDriver(frontend, self.trace, scenario.closed_loop)
        stats = driver.run(until_ms=scenario.mark_ms)
        marked = len(stats)
        driver.loop.run()
        return Playback(stats, marked, driver.loop.now_ms, deployment)

    def _deploy(self, scenario: Scenario) -> FunctionProxy | ShardRouter:
        if scenario.shards is None:
            proxy = self._scenario_proxy(scenario, None)
            if isinstance(scenario.faults, FaultPlan):
                proxy.install_fault_plan(scenario.faults)
            return proxy
        assert not isinstance(scenario.faults, FaultPlan)
        shard_ids = [f"shard-{index}" for index in range(scenario.shards)]
        return ShardRouter(
            [
                Shard(shard_id, self._scenario_proxy(scenario, shard_id))
                for shard_id in shard_ids
            ],
            fallback=self.build_proxy(CachingScheme.NO_CACHE),
            config=RouterConfig(
                failover=scenario.failover,
                handoff_on_crash=scenario.failover,
                region_partitions={RADIAL_TEMPLATE_ID: REGION_CELL},
            ),
            crash_plan=scenario.faults,
            events=EventRecorder(),
            timeseries=TimeSeriesRecorder(lanes=ROUTER_LANES),
        )

    def _scenario_proxy(
        self, scenario: Scenario, shard_id: str | None
    ) -> FunctionProxy:
        admission = persistence = None
        if scenario.admission is not None:
            admission = AdmissionController(scenario.admission)
        if scenario.persistence is not None:
            directory = scenario.persistence
            if shard_id is not None:
                directory = directory / shard_id
            persistence = CachePersister(
                directory,
                snapshot_every=scenario.snapshot_every,
                shard_id=shard_id,
            )
        return self.build_proxy(
            scenario.scheme,
            scenario.description_kind,
            scenario.cache_fraction,
            admission=admission,
            persistence=persistence,
        )

    def run(
        self,
        scheme: CachingScheme,
        description_kind: str = "array",
        cache_fraction: float | None = None,
        measure_queries: int | None = None,
    ) -> RunResult:
        """Replay the trace under one configuration and write its
        artifacts."""
        limit = measure_queries or self.scale.measure_queries
        played = self.play(
            Scenario(
                scheme, description_kind, cache_fraction, queries=slice(limit)
            )
        )
        proxy = played.deployment
        result = RunResult(
            scheme=scheme,
            description_kind=description_kind,
            cache_fraction=cache_fraction,
            stats=played.stats,
            final_cache_bytes=proxy.cache.current_bytes,
            final_cache_entries=len(proxy.cache),
            metrics_snapshot=proxy.metrics.snapshot(),
        )
        self._write_snapshot(result, proxy)
        return result

    def _write_snapshot(self, result: RunResult, proxy: FunctionProxy) -> None:
        """Persist the run's observability artifacts beside the results:
        the metrics snapshot, the decision-explain dump, and whichever
        of the span export, profile, time series and flight recorder
        the scale enables.  Writes are atomic (temp + rename), so an
        interrupted run never leaves a half-written artifact for a
        later diff to choke on."""
        if self.snapshot_dir is None:
            return
        self.snapshot_dir.mkdir(parents=True, exist_ok=True)
        label = result.label()
        documents = {
            "metrics": result.metrics_snapshot,
            "decisions": {
                "actions": proxy.obs.decisions.action_counts(),
                "slo": proxy.obs.slo.snapshot(),
                "decisions": proxy.obs.decisions.recent(),
            },
        }
        if proxy.tracer.enabled:
            atomic_write_text(
                self.snapshot_dir / f"trace-{label}.jsonl",
                proxy.tracer.export_jsonl(),
            )
        if proxy.profiler.enabled:
            documents["profile"] = proxy.profiler.snapshot()
        if proxy.timeseries.enabled:
            series = proxy.timeseries.snapshot()
            series["health"] = proxy.health.evaluate(
                proxy.telemetry_clock.now_ms
            )
            documents["timeseries"] = series
        if proxy.events.enabled:
            documents["events"] = proxy.events.snapshot()
        for kind, document in documents.items():
            atomic_write_text(
                self.snapshot_dir / f"{kind}-{label}.json",
                json.dumps(document, indent=2, sort_keys=True) + "\n",
            )
