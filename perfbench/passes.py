"""Measured passes over a workload, and the full-row answer check.

A pass replays the workload's measured window against a fresh
deployment from one thread, one client, no think time.  The closed
loop sends query ``i + 1`` as soon as query ``i`` returns; the open
loop sends query ``i`` at ``start + i / rate`` whatever happened before
and times it from that due time.

After each closed-loop reply, untimed, the answer is checked against
``origin.execute_bound`` on the deployment's own origin at the same
data version (the next version bump happens only before the next
send).  The comparison covers every column: a row multiset, or the row
sequence when the query has ORDER BY or TOP.

Also untimed, every ~0.1 s of query time the closed loop probes the
box's speed (``reference.py``), and each query's time is stated both
as measured and at the reference speed.
"""

from __future__ import annotations

import gc
import hashlib
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter, sleep

from repro.core.stats import QueryStatus

from perfbench.layers import SpanRecorder, install
from perfbench.reference import SpeedTrack
from perfbench.workloads import Answer, Deployment, Setup

#: The known seed defect: answers served from cache carry ``distance``
#: measured from the *cached* query's center.  Mismatches confined to
#: this column are counted as wrong but classified separately, so a
#: mismatch anywhere else still fails the run.
DISTANCE_COLUMN = "distance"


def _ordered(bound) -> bool:
    statement = bound.statement
    return bool(statement.order_by) or statement.top is not None


def _rows(result, drop: str | None = None):
    names = [name.lower() for name in result.column_names]
    rows = list(result.rows)
    if drop is not None and drop in names:
        position = names.index(drop)
        names = names[:position] + names[position + 1 :]
        rows = [row[:position] + row[position + 1 :] for row in rows]
    return names, rows


def _same(got, want, ordered: bool, drop: str | None = None) -> bool:
    got_names, got_rows = _rows(got, drop)
    want_names, want_rows = _rows(want, drop)
    if got_names != want_names:
        return False
    if ordered:
        return got_rows == want_rows
    return Counter(got_rows) == Counter(want_rows)


def check_answer(origin, answer: Answer) -> str:
    """``ok``, ``error``, ``wrong-distance`` (differs only in the
    distance column) or ``wrong`` (differs elsewhere too)."""
    if answer.error:
        return "error"
    want = origin.execute_bound(answer.bound).result
    ordered = _ordered(answer.bound)
    if _same(answer.result, want, ordered):
        return "ok"
    if _same(answer.result, want, ordered, drop=DISTANCE_COLUMN):
        return "wrong-distance"
    return "wrong"


@dataclass
class PassCounts:
    """Everything about a pass that must repeat exactly for a seed."""

    attempted: int = 0
    errors: int = 0
    wrong: int = 0
    wrong_other: int = 0
    wrong_by_status: Counter = field(default_factory=Counter)
    statuses: Counter = field(default_factory=Counter)
    efficiency_sum: float = 0.0
    sim_ms_sum: float = 0.0
    origin_bytes: int = 0
    response_bytes: int = 0
    evictions: int = 0
    invalidations: int = 0
    shard_queries: dict = field(default_factory=dict)

    def add(self, answer: Answer, verdict: str, client_ms: float) -> None:
        record = answer.record
        self.attempted += 1
        self.statuses[record.status.value] += 1
        self.efficiency_sum += record.cache_efficiency
        self.sim_ms_sum += record.response_ms + client_ms
        self.origin_bytes += record.origin_bytes
        self.response_bytes += answer.response_bytes
        if verdict == "error":
            self.errors += 1
        elif verdict != "ok":
            self.wrong += 1
            self.wrong_by_status[record.status.value] += 1
            if verdict == "wrong":
                self.wrong_other += 1

    def key(self) -> tuple:
        """The exact-repeat signature of the pass."""
        return (
            self.attempted,
            self.errors,
            self.wrong,
            self.wrong_other,
            tuple(sorted(self.wrong_by_status.items())),
            tuple(sorted(self.statuses.items())),
            self.efficiency_sum,
            self.sim_ms_sum,
            self.origin_bytes,
            self.evictions,
            self.invalidations,
            tuple(sorted(self.shard_queries.items())),
        )

    def summary(self) -> dict:
        n = max(self.attempted, 1)
        return {
            "attempted": self.attempted,
            "errors": self.errors,
            "error_fraction": self.errors / n,
            "wrong": self.wrong,
            "wrong_answer_fraction": self.wrong / n,
            "wrong_outside_distance": self.wrong_other,
            "wrong_by_status": dict(sorted(self.wrong_by_status.items())),
            "statuses": dict(sorted(self.statuses.items())),
            "cache_efficiency": self.efficiency_sum / n,
            "sim_response_ms": self.sim_ms_sum / n,
            "origin_bytes_per_query": self.origin_bytes / n,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "shard_queries": dict(sorted(self.shard_queries.items())),
        }


@dataclass
class PassResult:
    latencies_s: list[float]
    counts: PassCounts
    recorder: SpanRecorder | None = None
    digests: list[bytes] = field(default_factory=list)
    #: ``latencies_s`` at the reference speed (see ``reference.py``).
    scaled_s: list[float] = field(default_factory=list)
    #: The box's median speed over the pass, reference speed = 1.0.
    speed: float = 1.0

    @property
    def wall_s(self) -> float:
        return sum(self.latencies_s)

    @property
    def scaled_wall_s(self) -> float:
        return sum(self.scaled_s)


def _finish_counts(counts: PassCounts, deployment: Deployment) -> None:
    proxies = deployment.proxies
    counts.evictions = sum(proxy.cache.evictions for proxy in proxies)
    counts.invalidations = sum(proxy.invalidations for proxy in proxies)
    shard_counts = getattr(deployment, "shard_counts", None)
    if shard_counts is not None:
        counts.shard_queries = shard_counts()


def closed_pass(setup: Setup, traced: bool = False) -> PassResult:
    """One closed-loop pass on a fresh deployment, answers checked."""
    gc.collect()
    deployment = setup.deploy()
    recorder = SpanRecorder() if traced else None
    installation = install(recorder, deployment) if traced else None
    topology = setup.scale.topology
    track = SpeedTrack()
    counts = PassCounts()
    digests: list[bytes] = []
    try:
        for index in range(len(setup.calls)):
            deployment.before(index)
            if recorder is not None:
                recorder.begin_query(index)
                raw = deployment.send(index)
                latency = recorder.end_query()
            else:
                start = perf_counter()
                raw = deployment.send(index)
                latency = perf_counter() - start
            answer = deployment.settle(index, raw)
            verdict = check_answer(deployment.origin, answer)
            counts.add(
                answer,
                verdict,
                topology.client_round_trip_ms(answer.record.result_bytes),
            )
            digests.append(_digest(raw))
            track.maybe_probe(latency)
        track.flush()
        _finish_counts(counts, deployment)
    finally:
        if installation is not None:
            installation.restore()
        deployment.close()
    return PassResult(
        track.raw_s, counts, recorder, digests, track.scaled_s, track.speed()
    )


def _digest(raw) -> bytes:
    """A fingerprint of the reply the client received."""
    get_data = getattr(raw, "get_data", None)
    if get_data is not None:
        payload = b"%d|" % raw.status_code + get_data()
    else:
        _bound, response = raw
        payload = repr(response.result.rows).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=16).digest()


@dataclass
class OpenResult:
    latencies_s: list[float]  # completion minus due time
    lateness_s: list[float]  # send minus due time
    digests: list[bytes]
    elapsed_s: float
    errors: int  # non-2xx replies


def open_pass(setup: Setup, rate_qps: float, queries: int) -> OpenResult:
    """An open-loop pass over the first ``queries`` of the window, at a
    fixed arrival rate, on a fresh deployment.

    Each query is timed from its due time, so a stall also charges the
    wait it imposes on the queries behind it.  Replies are fingerprinted
    (untimed work, done in the slack before the next due time) and
    compared with the closed-loop pass afterwards.
    """
    gc.collect()
    deployment = setup.deploy()
    latencies: list[float] = []
    lateness: list[float] = []
    digests: list[bytes] = []
    errors = 0
    interval = 1.0 / rate_qps
    try:
        begin = perf_counter()
        for index in range(min(queries, len(setup.calls))):
            deployment.before(index)
            due = begin + index * interval
            wait = due - perf_counter()
            if wait > 0:
                sleep(wait)
            sent = perf_counter()
            raw = deployment.send(index)
            done = perf_counter()
            latencies.append(done - due)
            lateness.append(max(0.0, sent - due))
            digests.append(_digest(raw))
            errors += not 200 <= raw.status_code < 300
        elapsed = perf_counter() - begin
    finally:
        deployment.close()
    return OpenResult(latencies, lateness, digests, elapsed, errors)


def local_answer_fraction(counts: PassCounts) -> float:
    local = (
        counts.statuses.get(QueryStatus.EXACT.value, 0)
        + counts.statuses.get(QueryStatus.CONTAINED.value, 0)
    )
    return local / max(counts.attempted, 1)
