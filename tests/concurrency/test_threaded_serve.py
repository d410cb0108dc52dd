"""Threaded HTTP clients against one proxy app.

The proxy is a single-owner object and takes no locks; the Flask app's
per-app request lock is what keeps it safe behind a threaded WSGI
server.  Each test starts N threads, each with its own test client of
one shared app, releases them together at a barrier, and checks that
the proxy comes out consistent: distinct query indices, every query
answered, exact replays, the byte budget respected, a journal that
restores the same cache, and answers equal to the origin's.
"""

import sys
import threading
from collections import Counter
from urllib.parse import urlencode

import pytest

pytest.importorskip("flask")

from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryOutcome, QueryStatus
from repro.harness.config import ExperimentScale
from repro.relational.result import ResultTable
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID
from repro.webapp import create_proxy_app
from repro.workload.generator import RadialTraceConfig, generate_radial_trace


@pytest.fixture()
def make_proxy(origin):
    def build(**kwargs):
        return FunctionProxy(origin, origin.templates, **kwargs)

    return build


def radial_params(ra=164.0, radius=10.0, dec=8.0):
    return {
        "ra": ra,
        "dec": dec,
        "radius": radius,
        "r_min": -9999.0,
        "r_max": 9999.0,
    }


def form_path(templates, template_id, params):
    """The search-form URL a browser would request for one binding."""
    info = next(
        info
        for info in templates.info_files()
        if info.template_id == template_id
    )
    fields = {
        form_field: repr(params[parameter])
        for form_field, parameter in info.field_map.items()
    }
    return f"/search/{info.form_name}?{urlencode(fields)}"


def radial_path(templates, **kwargs):
    return form_path(templates, RADIAL_TEMPLATE_ID, radial_params(**kwargs))


def get_in_threads(app, paths_per_client):
    """One thread per client, each with its own test client of ``app``,
    started together; every client GETs its paths in order.  Returns
    the responses per client."""
    barrier = threading.Barrier(len(paths_per_client))
    responses = [[] for _ in paths_per_client]
    failures = []

    def run(slot, paths):
        client = app.test_client()
        try:
            barrier.wait(timeout=10)
            for path in paths:
                responses[slot].append(client.get(path))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    threads = [
        threading.Thread(target=run, args=(slot, paths))
        for slot, paths in enumerate(paths_per_client)
    ]
    # A short switch interval makes the threads interleave often, so
    # a request that slipped past the app lock would corrupt state.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if failures:
        raise failures[0]
    return responses


def one_each(paths):
    """One client per path."""
    return [[path] for path in paths]


def object_ids(xml_text):
    result = ResultTable.from_xml(xml_text)
    key = result.schema.position("objID")
    return Counter(row[key] for row in result.rows)


class TestInterleavedServes:
    def test_two_threads_reach_a_consistent_cache(
        self, make_proxy, templates
    ):
        proxy = make_proxy()
        app = create_proxy_app(proxy)
        left = radial_path(templates, ra=162.0, radius=4.0)
        right = radial_path(templates, ra=166.5, radius=4.0)
        (first,), (second,) = get_in_threads(app, one_each([left, right]))

        # Both queries were answered and recorded, under distinct
        # indices, and both landed in the cache.
        assert first.status_code == 200 and second.status_code == 200
        records = proxy.stats.records
        assert len(records) == 2
        assert {r.index for r in records} == {1, 2}
        assert all(r.outcome is QueryOutcome.SERVED for r in records)
        assert len(proxy.cache) == 2

        # The cache is consistent: re-serving each query is an exact
        # hit returning the same rows the origin produced.
        client = app.test_client()
        for path, response in ((left, first), (right, second)):
            replay = client.get(path)
            assert replay.headers["X-Cache-Status"] == "exact"
            assert not proxy.stats.records[-1].contacted_origin
            assert replay.get_data() == response.get_data()

    def test_many_interleaved_serves_account_for_every_query(
        self, make_proxy, templates
    ):
        proxy = make_proxy()
        paths = [
            radial_path(templates, ra=161.0 + 0.9 * i, radius=3.0)
            for i in range(8)
        ]
        responses = get_in_threads(create_proxy_app(proxy), one_each(paths))
        assert all(r.status_code == 200 for (r,) in responses)
        records = proxy.stats.records
        assert len(records) == 8
        assert {r.index for r in records} == set(range(1, 9))
        assert all(r.answered for r in records)

    def test_threaded_serves_under_eviction_pressure(
        self, make_proxy, templates, origin
    ):
        """With a byte budget, admissions keep evicting while other
        clients wait on the app: serve keeps its never-raises contract
        and the budget holds."""
        # Four disjoint queries whose results can never all fit: the
        # budget is their total minus half the smallest, so admissions
        # keep evicting for as long as the clients keep asking.
        distinct = [
            radial_params(ra=161.0 + 2.0 * i, radius=1.0) for i in range(4)
        ]
        sizes = [
            origin.execute_bound(
                templates.bind(RADIAL_TEMPLATE_ID, params)
            ).result.byte_size()
            for params in distinct
        ]
        budget = sum(sizes) - min(sizes) // 2
        proxy = make_proxy(cache_bytes=budget)
        app = create_proxy_app(proxy)
        paths = [
            form_path(templates, RADIAL_TEMPLATE_ID, distinct[i % 4])
            for i in range(12)
        ]
        get_in_threads(app, one_each(paths))

        records = proxy.stats.records
        assert len(records) == 12
        assert {r.index for r in records} == set(range(1, 13))
        assert all(r.answered for r in records)
        assert proxy.cache.evictions > 0
        assert proxy.cache.current_bytes <= budget
        # The survivor entries still answer exactly.
        client = app.test_client()
        for params in distinct:
            bound = templates.bind(RADIAL_TEMPLATE_ID, params)
            if proxy.cache.exact_match(bound) is not None:
                replay = client.get(
                    form_path(templates, RADIAL_TEMPLATE_ID, params)
                )
                assert replay.headers["X-Cache-Status"] == "exact"

    def test_admission_gate_under_threads_sheds_and_drains(
        self, make_proxy, templates
    ):
        """Behind the app lock each request finishes before the next
        one starts, so threads alone never fill the gate.  Pre-occupy
        every capacity slot: the whole burst then sheds with 429, and
        once the slots free up the follow-ups serve."""
        from repro.admission import AdmissionConfig, AdmissionController

        proxy = make_proxy(
            admission=AdmissionController(
                AdmissionConfig(max_inflight=2, max_queue_depth=2)
            )
        )
        app = create_proxy_app(proxy)
        holds = 0
        while proxy.admission.try_admit(
            "default", proxy.clock.now_ms
        ).admitted:
            holds += 1
        paths = [
            radial_path(templates, ra=161.0 + 0.7 * i, radius=3.0)
            for i in range(10)
        ]
        responses = get_in_threads(app, one_each(paths))
        assert [r.status_code for (r,) in responses] == [429] * 10
        for _ in range(holds):
            proxy.admission.release()
        client = app.test_client()
        assert client.get(paths[0]).status_code == 200
        assert client.get(paths[1]).status_code == 200

        records = proxy.stats.records
        assert len(records) == 12
        assert {r.index for r in records} == set(range(1, 13))
        counts = {
            outcome: sum(1 for r in records if r.outcome is outcome)
            for outcome in (QueryOutcome.SERVED, QueryOutcome.SHED)
        }
        assert counts[QueryOutcome.SHED] == 10
        assert counts[QueryOutcome.SERVED] == 2
        assert proxy.admission.inflight == 0

    def test_threaded_serves_with_persistence_keep_the_journal_sound(
        self, tmp_path, make_proxy, templates
    ):
        from repro.persistence.persister import CachePersister

        proxy = make_proxy(
            persistence=CachePersister(tmp_path / "state"),
            recover=False,
        )
        paths = [
            radial_path(templates, ra=161.5 + i, radius=3.5)
            for i in range(4)
        ]
        get_in_threads(create_proxy_app(proxy), one_each(paths))
        assert len(proxy.stats.records) == 4
        # Every admitted entry was journaled exactly once: a warm
        # restart into a fresh proxy restores the same cache.
        restarted = make_proxy(
            persistence=CachePersister(tmp_path / "state"),
            recover=True,
        )
        assert len(restarted.cache) == len(proxy.cache)


class TestParallelClientsMatchTheOrigin:
    def test_radial_trace_slice_answers_equal_the_origin(
        self, make_proxy, origin, templates
    ):
        """Four clients share one proxy app and replay a radial trace
        slice between them.  Every answer — exact, contained, overlap
        or forwarded — carries the objID multiset the origin returns
        for the same binding."""
        trace = generate_radial_trace(
            RadialTraceConfig(n_queries=80, sky=ExperimentScale.quick().sky)
        )
        params = [query.param_dict() for query in trace]
        clients = 4
        shares = [params[slot::clients] for slot in range(clients)]
        paths = [
            [form_path(templates, RADIAL_TEMPLATE_ID, p) for p in share]
            for share in shares
        ]
        proxy = make_proxy()
        responses = get_in_threads(create_proxy_app(proxy), paths)

        statuses = Counter()
        for share, answers in zip(shares, responses):
            assert len(answers) == len(share)
            for binding, response in zip(share, answers):
                assert response.status_code == 200
                statuses[response.headers["X-Cache-Status"]] += 1
                want = origin.execute_bound(
                    templates.bind(RADIAL_TEMPLATE_ID, binding)
                ).result
                key = want.schema.position("objID")
                assert object_ids(response.get_data(as_text=True)) == Counter(
                    row[key] for row in want.rows
                ), f"answer mismatch for {binding}"
        assert sum(statuses.values()) == len(params)
        # The slice exercises the cache, not just the forward path.
        assert statuses[QueryStatus.CONTAINED.value] > 0
