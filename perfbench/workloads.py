"""The three serving workloads: seeded traces and fresh deployments.

A *setup* is everything built before the first timed query: the origin
(catalog plus templates), the seeded trace and the cache budget; the
benchmark times one deployment's construction with it.  A *deployment*
is the thing the client talks to; each measured pass gets a fresh one
over the same origin catalog, so passes start from the same cold state
and repeat the same decisions.

The client half of every deployment is split in two:

* ``send(i)`` is the timed part: exactly what a client of that
  deployment shape does to get query ``i`` answered;
* ``settle(i, raw)`` is untimed: it turns the raw reply into an
  :class:`Answer` (bound query, proxy record, rows) for the answer check
  and the counts.
"""

from __future__ import annotations

import logging
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from repro.admission import AdmissionConfig, AdmissionController
from repro.cluster import RouterConfig, Shard, ShardRouter
from repro.core.description import ArrayDescription, RTreeDescription
from repro.core.proxy import FunctionProxy
from repro.core.schemes import CachingScheme
from repro.core.stats import QueryOutcome, QueryRecord
from repro.harness.config import ExperimentScale
from repro.persistence.persister import CachePersister
from repro.relational.result import ResultTable
from repro.server.origin import OriginServer
from repro.templates.manager import BoundQuery, TemplateManager
from repro.templates.skyserver_templates import (
    RADIAL_TEMPLATE_ID,
    register_skyserver_templates,
)
from repro.workload.generator import generate_radial_trace
from repro.workload.rect_generator import (
    RectTraceConfig,
    generate_rect_trace,
    interleave,
)
from repro.workload.trace import TraceQuery

WORKLOADS = ("radial-hot", "http-rtree", "churn-tier")

#: Cache budgets as fractions of the measured window's total result
#: size (one stored result per distinct query, the harness's anchor).
#: The tier's budget is split evenly over its shards: with 1/6 *per
#: shard* the version bumps empty both caches before either fills, and
#: nothing is ever evicted.
HTTP_BUDGET_FRACTION = 1 / 3
TIER_BUDGET_FRACTION = 1 / 6

#: churn-tier: shard count, data-version bump period (the workload's
#: write), journal snapshot cadence, and the radial region-partition
#: cell (unit-sphere coordinates, as in the shard-availability
#: experiment).
TIER_SHARDS = 2
BUMP_EVERY = 500
SNAPSHOT_EVERY = 64
REGION_CELL = 0.02
#: Rectangular queries mixed into the churn trace, per radial query.
RECT_PER_RADIAL = 0.5

#: http-rtree open loop: the fixed arrival rate, about half of the
#: closed-loop capacity measured when this workload was defined
#: (~350 q/s on a 2-vCPU x86-64 container), and the queries it sends:
#: the first 1,000 of the window (5.7 s at that rate), so the 99th
#: percentile still has ten samples beyond it.
OPEN_RATE_QPS = 175.0
OPEN_QUERIES = 1_000

#: Outcomes that count as errors (no full answer reached the client).
ERROR_OUTCOMES = (
    QueryOutcome.FAILED,
    QueryOutcome.SHED,
    QueryOutcome.QUEUED_TIMEOUT,
)


@dataclass
class Answer:
    """One query's reply as the client saw it, settled for checking."""

    bound: BoundQuery
    record: QueryRecord
    result: ResultTable | None  # None when the reply was an error
    error: str  # "" for a full answer, else why not
    response_bytes: int = 0


class Deployment:
    """A fresh serving stack over one origin; subclasses add the client."""

    def __init__(self, setup: "Setup") -> None:
        self.setup = setup
        # A fresh origin over the set-up's catalog, with its own
        # template manager: proxies register observers on the manager
        # they are given, so sharing one would keep every earlier
        # pass's proxy alive.
        templates = TemplateManager()
        register_skyserver_templates(templates)
        self.origin = OriginServer(
            setup.origin.catalog, templates, setup.scale.server_costs
        )

    def new_proxy(self, description, cache_bytes, **kwargs) -> FunctionProxy:
        scale = self.setup.scale
        return FunctionProxy(
            origin=self.origin,
            templates=self.origin.templates,
            scheme=CachingScheme.FULL_SEMANTIC,
            description=description,
            cache_bytes=cache_bytes,
            costs=scale.proxy_costs,
            topology=scale.topology,
            **kwargs,
        )

    @property
    def proxies(self) -> list[FunctionProxy]:
        raise NotImplementedError

    def before(self, index: int) -> None:
        """Untimed hook run before query ``index`` is sent."""

    def send(self, index: int) -> Any:
        raise NotImplementedError

    def settle(self, index: int, raw: Any) -> Answer:
        raise NotImplementedError

    def close(self) -> None:
        """Release files the deployment owns."""

    def _answer(self, bound, response) -> Answer:
        record = response.record
        error = (
            f"outcome-{record.outcome.value}"
            if record.outcome in ERROR_OUTCOMES
            else ""
        )
        return Answer(
            bound=bound,
            record=record,
            result=None if error else response.result,
            error=error,
        )


class InProcessDeployment(Deployment):
    """radial-hot: one in-process proxy, AC-full, array description,
    unlimited cache."""

    def __init__(self, setup: "Setup") -> None:
        super().__init__(setup)
        self.proxy = self.new_proxy(
            ArrayDescription(setup.scale.proxy_costs), None
        )

    @property
    def proxies(self) -> list[FunctionProxy]:
        return [self.proxy]

    def send(self, index: int):
        template_id, params = self.setup.calls[index]
        bound = self.origin.templates.bind(template_id, params)
        return bound, self.proxy.serve(bound)

    def settle(self, index: int, raw) -> Answer:
        bound, response = raw
        return self._answer(bound, response)


class HttpDeployment(Deployment):
    """http-rtree: the Flask proxy app through its WSGI test client;
    AC-full, R-tree, 1/3 budget, generous admission control."""

    def __init__(self, setup: "Setup") -> None:
        super().__init__(setup)
        from repro.webapp import create_proxy_app

        self.proxy = self.new_proxy(
            RTreeDescription(setup.scale.proxy_costs),
            setup.cache_bytes,
            admission=AdmissionController(AdmissionConfig()),
        )
        # The app's start-up template report logs one info diagnostic
        # per app; keep it out of the benchmark's output.
        logging.getLogger("repro-proxy").setLevel(logging.ERROR)
        self.client = create_proxy_app(self.proxy).test_client()

    @property
    def proxies(self) -> list[FunctionProxy]:
        return [self.proxy]

    def send(self, index: int):
        return self.client.get(self.setup.urls[index])

    def settle(self, index: int, raw) -> Answer:
        template_id, params = self.setup.calls[index]
        bound = self.origin.templates.bind(template_id, params)
        records = self.proxy.stats.records
        if len(records) != index + 1:
            raise RuntimeError(
                f"query {index}: HTTP {raw.status_code} left no proxy record"
            )
        record = records[-1]
        body = raw.get_data()
        error = "" if 200 <= raw.status_code < 300 else f"http-{raw.status_code}"
        result = None if error else ResultTable.from_xml(body.decode("utf-8"))
        return Answer(
            bound=bound,
            record=record,
            result=result,
            error=error,
            response_bytes=len(body),
        )


class TierDeployment(Deployment):
    """churn-tier: a 2-shard router over AC-full R-tree shards sharing
    the tier's 1/6 budget, each journaled to its own directory; the
    origin bumps its data version every ``BUMP_EVERY`` queries."""

    def __init__(self, setup: "Setup") -> None:
        super().__init__(setup)
        self.state_dir = Path(
            tempfile.mkdtemp(prefix="tier-", dir=setup.work_dir)
        )
        shards = []
        for index in range(TIER_SHARDS):
            shard_id = f"shard-{index}"
            proxy = self.new_proxy(
                RTreeDescription(setup.scale.proxy_costs),
                setup.cache_bytes,
                persistence=CachePersister(
                    self.state_dir / shard_id,
                    snapshot_every=SNAPSHOT_EVERY,
                    durable=False,
                    shard_id=shard_id,
                ),
            )
            shards.append(Shard(shard_id, proxy))
        self.router = ShardRouter(
            tuple(shards),
            config=RouterConfig(
                region_partitions={RADIAL_TEMPLATE_ID: REGION_CELL}
            ),
        )

    @property
    def proxies(self) -> list[FunctionProxy]:
        return [
            self.router.shard(shard_id).proxy
            for shard_id in self.router.shard_ids
        ]

    def shard_counts(self) -> dict[str, int]:
        return {
            shard_id: len(self.router.shard(shard_id).proxy.stats)
            for shard_id in self.router.shard_ids
        }

    def before(self, index: int) -> None:
        if index and index % BUMP_EVERY == 0:
            self.origin.bump_data_version()

    def send(self, index: int):
        template_id, params = self.setup.calls[index]
        bound = self.origin.templates.bind(template_id, params)
        return bound, self.router.serve(bound)

    def settle(self, index: int, raw) -> Answer:
        bound, response = raw
        return self._answer(bound, response)

    def close(self) -> None:
        shutil.rmtree(self.state_dir, ignore_errors=True)


DEPLOYMENTS: dict[str, Callable[["Setup"], Deployment]] = {
    "radial-hot": InProcessDeployment,
    "http-rtree": HttpDeployment,
    "churn-tier": TierDeployment,
}


@dataclass
class Setup:
    """One workload's inputs plus the origin they run against."""

    workload: str
    seed: int
    scale: ExperimentScale
    origin: OriginServer
    queries: list[TraceQuery]
    calls: list[tuple[str, dict[str, Any]]]
    urls: list[str]
    cache_bytes: int | None
    total_result_bytes: int | None
    work_dir: Path

    def deploy(self) -> Deployment:
        return DEPLOYMENTS[self.workload](self)


def workload_trace(
    workload: str, seed: int, scale: ExperimentScale
) -> list[TraceQuery]:
    """The measured window of the workload's seeded trace."""
    radial_config = replace(scale.trace, seed=seed)
    if workload == "churn-tier":
        radial = generate_radial_trace(radial_config)
        rect = generate_rect_trace(
            RectTraceConfig(
                n_queries=int(radial_config.n_queries * RECT_PER_RADIAL),
                seed=seed + 1,
                sky=scale.sky,
            )
        )
        trace = interleave([radial, rect], seed=seed)
    else:
        trace = generate_radial_trace(radial_config)
    return trace.queries[: scale.measure_queries]


def total_result_bytes(
    origin: OriginServer, calls: list[tuple[str, dict[str, Any]]]
) -> int:
    """Bytes one stored result per distinct query would take: the
    cache-size anchor the paper's Table 1 / Figure 5 axis uses."""
    seen = set()
    total = 0
    for template_id, params in calls:
        key = (template_id, tuple(sorted(params.items())))
        if key in seen:
            continue
        seen.add(key)
        bound = origin.templates.bind(template_id, params)
        total += origin.execute_bound(bound).result.byte_size()
    return total


def form_url(origin: OriginServer, template_id: str, params: dict) -> str:
    """The search-form URL a browser would request for one binding."""
    from urllib.parse import urlencode

    info = next(
        info
        for info in origin.templates.info_files()
        if info.template_id == template_id
    )
    fields = {
        form_field: repr(params[parameter])
        for form_field, parameter in info.field_map.items()
    }
    return f"/search/{info.form_name}?{urlencode(fields)}"


def build_setup(
    workload: str,
    seed: int,
    work_dir: Path,
    scale: ExperimentScale | None = None,
) -> Setup:
    """Build everything a pass needs, plus one deployment's worth of
    inputs (the client's URLs or bind calls)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; use {WORKLOADS}")
    scale = scale or ExperimentScale.default()
    origin = OriginServer.skyserver(scale.sky, scale.server_costs)
    queries = workload_trace(workload, seed, scale)
    calls = [(query.template_id, query.param_dict()) for query in queries]
    urls: list[str] = []
    total = None
    cache_bytes = None
    if workload == "http-rtree":
        urls = [form_url(origin, t, p) for t, p in calls]
        total = total_result_bytes(origin, calls)
        cache_bytes = int(total * HTTP_BUDGET_FRACTION)
    elif workload == "churn-tier":
        total = total_result_bytes(origin, calls)
        cache_bytes = int(total * TIER_BUDGET_FRACTION / TIER_SHARDS)
    return Setup(
        workload=workload,
        seed=seed,
        scale=scale,
        origin=origin,
        queries=queries,
        calls=calls,
        urls=urls,
        cache_bytes=cache_bytes,
        total_result_bytes=total,
        work_dir=work_dir,
    )
