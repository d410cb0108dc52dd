"""The benchmark's own checks, at a small scale.

Same seed, same counts: the exact-repeat metrics, the wrong and error
counts, evictions, checkpoints and per-shard query counts.  A different
seed changes the trace.  The layer table sums to the traced wall time.
The benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.description import ArrayDescription
from repro.core.proxy import FunctionProxy
from repro.core.schemes import CachingScheme
from repro.harness.config import ExperimentScale
from repro.workload.rbe import BrowserEmulator
from repro.workload.trace import Trace

from perfbench.layers import LAYERS, ROOT
from perfbench.passes import closed_pass
from perfbench.workloads import BUMP_EVERY, WORKLOADS, build_setup, workload_trace

BENCH_DIR = Path(__file__).resolve().parents[1]

#: Quick-scale catalog; long enough for one data-version bump.
SMALL = replace(
    ExperimentScale.quick().with_trace_length(BUMP_EVERY + 100),
    measure_queries=BUMP_EVERY + 100,
)


def _traced_counts(setup):
    result = closed_pass(setup, traced=True)
    counts = result.recorder.counts
    return (
        result.counts.key(),
        counts["evictions"],
        counts["checkpoints"],
        counts["origin_calls"],
        tuple(sorted(result.recorder.shard_queries.items())),
        result.digests,
    ), result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_every_count(workload, tmp_path):
    first, result = _traced_counts(build_setup(workload, 7, tmp_path, SMALL))
    second, _ = _traced_counts(build_setup(workload, 7, tmp_path, SMALL))
    assert first == second
    assert result.counts.attempted == SMALL.measure_queries
    assert result.counts.errors == 0
    assert result.counts.wrong_other == 0


def test_churn_tier_exercises_its_layers(tmp_path):
    setup = build_setup("churn-tier", 7, tmp_path, SMALL)
    _, result = _traced_counts(setup)
    counts = result.recorder.counts
    assert result.counts.invalidations == len(result.recorder.shard_queries)
    assert counts["evictions"] > 0
    assert counts["checkpoints"] > 0
    assert len(result.recorder.shard_queries) == 2
    assert {q.template_id for q in setup.queries} == {
        "skyserver.radial",
        "skyserver.rect",
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seed_changes_the_trace(workload):
    assert workload_trace(workload, 7, SMALL) != workload_trace(
        workload, 8, SMALL
    )


def test_layer_self_times_sum_to_traced_wall(tmp_path):
    setup = build_setup("http-rtree", 7, tmp_path, SMALL)
    result = closed_pass(setup, traced=True)
    recorder = result.recorder
    total = sum(recorder.self_s[name] for name in LAYERS + (ROOT,))
    assert total == pytest.approx(recorder.wall_s, rel=1e-9)
    assert recorder.wall_s == pytest.approx(result.wall_s, rel=1e-9)
    for name in ("webapp.dispatch", "templates.bind", "core.proxy"):
        assert recorder.self_s[name] > 0
    # The traced pass restores every class-level wrapper it installed.
    from repro.relational.result import ResultTable

    assert "wrapper" not in ResultTable.to_xml.__qualname__


def test_sim_metrics_match_the_browser_emulator(tmp_path):
    """radial-hot's Table 1 / Figure 5 numbers are the harness's."""
    setup = build_setup("radial-hot", 7, tmp_path, SMALL)
    summary = closed_pass(setup).counts.summary()
    proxy = FunctionProxy(
        origin=setup.origin,
        templates=setup.origin.templates,
        scheme=CachingScheme.FULL_SEMANTIC,
        description=ArrayDescription(SMALL.proxy_costs),
        costs=SMALL.proxy_costs,
        topology=SMALL.topology,
    )
    stats = BrowserEmulator(proxy).run(Trace(setup.queries))
    assert summary["cache_efficiency"] == pytest.approx(
        stats.average_cache_efficiency, rel=1e-12
    )
    assert summary["sim_response_ms"] == pytest.approx(
        stats.average_response_ms, rel=1e-12
    )


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out")
    )
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "radial-hot",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    import json

    from perfbench import run

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    setup = build_setup("http-rtree", 7, tmp_path, SMALL)
    measured = run.measure(setup, seconds=0)
    assert measured["correct"]
    names = {"setup_s", "peak_rss_mb"} | set(measured["metrics"])
    assert names == {metric["name"] for metric in spec["end_to_end"]}
    layers = run.layer_metrics(closed_pass(setup), closed_pass(setup, traced=True))
    assert set(layers) == {metric["name"] for metric in spec["per_layer"]}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric["name"]


def test_speed_track_scales_each_query_by_the_probes_around_it(monkeypatch):
    from perfbench import reference

    probes = iter([0.002, 0.004, 0.001])
    monkeypatch.setattr(reference, "probe", lambda: next(probes))
    monkeypatch.setattr(reference, "PROBE_EVERY_S", 0.05)
    track = reference.SpeedTrack()
    for raw in (0.02, 0.03, 0.01, 0.04):  # probes after the 2nd and 4th
        track.maybe_probe(raw)
    track.flush()  # nothing pending: no extra probe
    reference_s = reference.REFERENCE_PROBE_S
    assert track.raw_s == [0.02, 0.03, 0.01, 0.04]
    assert track.scaled_s == pytest.approx(
        [0.02 * reference_s / 0.003, 0.03 * reference_s / 0.003]
        + [0.01 * reference_s / 0.0025, 0.04 * reference_s / 0.0025]
    )
    assert track.speed() == pytest.approx(reference_s / 0.002)
