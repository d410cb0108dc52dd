"""Wall-clock serving benchmark for the function proxy.

Run from the repository root::

    python3 perfbench/run.py --workload radial-hot --seed 339 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: median set-up time over
several set-ups, then whole closed-loop passes (plus one open-loop pass
on ``http-rtree``) until ``--seconds`` of measuring is used, every
answer checked against the origin.  ``--trace 1`` runs one untraced and
one traced pass and reports the per-layer metrics and the layer
self-time table.  A human-readable report goes to standard output; its
last line is the JSON result.  Run details (and, traced, the spans) are
written under ``perfbench/out/``.

Every reported time is stated at the reference speed of
``reference.py``: the box is shared and its speed drifts, so each
query's (and each set-up's) measured time is scaled by a fixed kernel's
time around it.  The measured times are printed beside them as
``raw_*`` and kept in the run details.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A further pass starts only if it is predicted to end within this
#: share of ``--seconds``.
PASS_SLACK = 1.1
#: Iterations of the fixed pure-Python loop timed as a noise reference.
NOISE_LOOP = 3_000_000


def noise_reference() -> float:
    """Seconds for a fixed pure-Python loop: the box's speed right now."""
    start = perf_counter()
    total = 0
    for i in range(NOISE_LOOP):
        total += i ^ (i >> 3)
    return perf_counter() - start


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_mean(values: list[float], share: float = 0.01) -> float:
    """Mean of the slowest ``share`` of ``values`` (at least one)."""
    ordered = sorted(values)
    count = max(1, round(len(ordered) * share))
    return statistics.fmean(ordered[-count:])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(workload: str, seed: int, repeats: int):
    """Build the set-up ``repeats`` times.

    Returns (last setup, raw times, times at reference speed).
    """
    from perfbench.reference import scaled_interval
    from perfbench.workloads import build_setup

    def build():
        setup = build_setup(workload, seed, OUT_DIR)
        setup.deploy().close()
        return setup

    raw, scaled = [], []
    setup = None
    for _ in range(repeats):
        setup = None  # free the previous set-up before timing the next
        gc.collect()
        raw_s, scaled_s, setup = scaled_interval(build)
        raw.append(raw_s)
        scaled.append(scaled_s)
    return setup, raw, scaled


def measure(setup, seconds: float) -> dict:
    """``--trace 0``: passes until ``seconds`` are used; e2e metrics."""
    from perfbench.passes import closed_pass, open_pass
    from perfbench.workloads import OPEN_QUERIES, OPEN_RATE_QPS

    open_s = OPEN_QUERIES / OPEN_RATE_QPS if setup.workload == "http-rtree" else 0.0
    closed, opened = [], []
    used = 0.0
    while True:
        started = perf_counter()
        closed.append(closed_pass(setup))
        used += perf_counter() - started
        if used + used / len(closed) + open_s > seconds * PASS_SLACK:
            break
    if open_s:
        opened.append(open_pass(setup, OPEN_RATE_QPS, OPEN_QUERIES))
    first = closed[0]
    repeatable = all(
        result.counts.key() == first.counts.key()
        and result.digests == first.digests
        for result in closed
    ) and all(
        result.digests == first.digests[: len(result.digests)]
        for result in opened
    )
    raw = [value for result in closed for value in result.latencies_s]
    scaled = [value for result in closed for value in result.scaled_s]
    summary = first.counts.summary()
    metrics = {
        "throughput_qps": len(scaled) / sum(scaled),
        "latency_p50_ms": percentile(scaled, 0.50) * 1e3,
        "latency_p90_ms": percentile(scaled, 0.90) * 1e3,
        "answered_fraction": 1.0 - summary["error_fraction"],
        "answer_match_fraction": 1.0 - summary["wrong_answer_fraction"],
        "cache_efficiency": summary["cache_efficiency"],
        "sim_response_ms": summary["sim_response_ms"],
        "origin_bytes_per_query": summary["origin_bytes_per_query"],
    }
    extra = {
        "latency_p99_ms": percentile(scaled, 0.99) * 1e3,
        "latency_tail_ms": tail_mean(scaled) * 1e3,
        "raw_throughput_qps": len(raw) / sum(raw),
        "raw_latency_p50_ms": percentile(raw, 0.50) * 1e3,
        "raw_latency_p90_ms": percentile(raw, 0.90) * 1e3,
        "raw_latency_p99_ms": percentile(raw, 0.99) * 1e3,
        "raw_latency_tail_ms": tail_mean(raw) * 1e3,
        "error_fraction": summary["error_fraction"],
        "wrong_answer_fraction": summary["wrong_answer_fraction"],
    }
    details = {
        "closed_passes": [
            {
                "queries": len(result.latencies_s),
                "wall_s": result.wall_s,
                "raw_throughput_qps": len(result.latencies_s) / result.wall_s,
                "throughput_qps": len(result.scaled_s) / result.scaled_wall_s,
                "speed": result.speed,
            }
            for result in closed
        ],
        "counts": summary,
        "repeatable": repeatable,
        "measured_s": used,
    }
    if opened:
        open_latencies = [v for result in opened for v in result.latencies_s]
        lateness = [v for result in opened for v in result.lateness_s]
        extra["open_p50_ms"] = percentile(open_latencies, 0.50) * 1e3
        extra["open_p99_ms"] = percentile(open_latencies, 0.99) * 1e3
        details["open_loop"] = {
            "rate_qps": OPEN_RATE_QPS,
            "queries": OPEN_QUERIES,
            "passes": len(opened),
            "elapsed_s": [result.elapsed_s for result in opened],
            "lateness_p50_ms": percentile(lateness, 0.50) * 1e3,
            "lateness_p99_ms": percentile(lateness, 0.99) * 1e3,
            "lateness_max_ms": max(lateness) * 1e3,
        }
    return {
        "metrics": metrics,
        "extra": extra,
        "details": details,
        "attempted": sum(result.counts.attempted for result in closed)
        + sum(len(result.latencies_s) for result in opened),
        "failed": sum(result.counts.errors for result in closed)
        + sum(result.errors for result in opened),
        "correct": repeatable and first.counts.wrong_other == 0
        and first.counts.errors == 0,
    }


def layer_metrics(untraced, traced) -> dict:
    """``--trace 1``: per-layer metrics from one traced pass.

    Layer times are scaled to the reference speed by the traced pass's
    own scale (its scaled over its measured query time).
    """
    from perfbench.passes import local_answer_fraction

    recorder = traced.recorder
    counts = recorder.counts
    us = scaled_self_us(traced)
    queries = max(recorder.queries, 1)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    shards = recorder.shard_queries
    skew = (
        ratio(max(shards.values()), sum(shards.values()) / len(shards))
        if shards
        else 0.0
    )
    return {
        "templates.bind_us": us["templates.bind"],
        "core.proxy.self_us": us["core.proxy"],
        "core.description.probe_us": us["core.description.probe"],
        "core.description.entries_per_probe": ratio(
            counts["probe_entries"], counts["probes"]
        ),
        "core.description.candidates_per_probe": ratio(
            counts["candidates"], counts["probes"]
        ),
        "core.description.maint_us": us["core.description.maint"],
        "core.cache.store_us": us["core.cache.store"],
        "core.cache.evictions_per_query": counts["evictions"] / queries,
        "core.cache.local_answer_fraction": local_answer_fraction(
            traced.counts
        ),
        "core.evaluation.local_eval_us": us["core.evaluation"],
        "core.evaluation.rows_read_per_row_returned": ratio(
            counts["rows_read"], counts["rows_returned"]
        ),
        "core.remainder_us": us["core.remainder"],
        "server.origin.execute_us": us["server.origin"],
        "server.origin.calls_per_query": counts["origin_calls"] / queries,
        "server.origin.rows_per_call": ratio(
            counts["origin_rows"], counts["origin_calls"]
        ),
        "persistence.hook_us": us["persistence.hook"],
        "persistence.checkpoint_us": us["persistence.checkpoint"],
        "persistence.checkpoints": float(counts["checkpoints"]),
        "persistence.bytes_per_admitted_byte": ratio(
            counts["persist_bytes"], counts["admitted_bytes"]
        ),
        "cluster.router_self_us": us["cluster.router"],
        "cluster.route_us": us["cluster.route"],
        "cluster.shard_skew": skew,
        "webapp.dispatch_us": us["webapp.dispatch"],
        "webapp.to_xml_us": us["webapp.to_xml"],
        "webapp.response_bytes": traced.counts.response_bytes / queries,
        "admission.try_admit_us": us["admission.try_admit"],
        "locking.acquires_per_query": counts["lock_acquires"] / queries,
        "unattributed_us": us["unattributed"],
        "traced_wall_us": traced.scaled_wall_s * 1e6 / queries,
        "obs.tracing_overhead": traced.scaled_wall_s / untraced.scaled_wall_s,
    }


UNITS = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "latency_tail_ms": "ms",
    "open_p50_ms": "ms",
    "open_p99_ms": "ms",
    "answered_fraction": "fraction",
    "answer_match_fraction": "fraction",
    "error_fraction": "fraction",
    "wrong_answer_fraction": "fraction",
    "cache_efficiency": "fraction",
    "sim_response_ms": "ms",
    "origin_bytes_per_query": "bytes",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.startswith("raw_"):
        return unit_of(name[len("raw_") :])
    if name.endswith("_us"):
        return "us"
    if name.endswith("_fraction"):
        return "fraction"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_per_query", "_per_probe", ".checkpoints")):
        return "count"
    return "ratio"


def scaled_self_us(traced) -> dict[str, float]:
    """Per-query layer self times of a traced pass, at reference speed."""
    scale = traced.scaled_wall_s / traced.wall_s
    return {
        name: value * scale
        for name, value in traced.recorder.self_us_per_query().items()
    }


def layer_table(traced) -> list[str]:
    """Self time per layer, per query, summing to the traced wall."""
    from perfbench.layers import LAYERS, ROOT

    us = scaled_self_us(traced)
    wall = traced.scaled_wall_s * 1e6 / max(traced.recorder.queries, 1)
    lines = [f"{'layer':28s} {'self us/query':>14s} {'share':>7s}"]
    total = 0.0
    for name in LAYERS + (ROOT,):
        total += us[name]
        lines.append(
            f"{name:28s} {us[name]:14.1f} {us[name] / wall:7.1%}"
        )
    lines.append(f"{'sum of rows':28s} {total:14.1f} {total / wall:7.1%}")
    lines.append(f"{'traced query wall':28s} {wall:14.1f}")
    return lines


def run(args) -> dict:
    from perfbench.passes import closed_pass

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    noise = noise_reference()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "noise_reference_s": noise,
        "noise_loop_iterations": NOISE_LOOP,
    }
    lines = []
    if args.trace == 0:
        setup, raw_setups, setup_times = timed_setups(
            args.workload, args.seed, SETUP_REPEATS
        )
        result = measure(setup, args.seconds)
        metrics = {"setup_s": statistics.median(setup_times)}
        metrics.update(result["metrics"])
        metrics["peak_rss_mb"] = peak_rss_mb()
        result["extra"]["raw_setup_s"] = statistics.median(raw_setups)
        report.update(
            setup_s=setup_times,
            raw_setup_s=raw_setups,
            details=result["details"],
            extra=result["extra"],
            cache_bytes=setup.cache_bytes,
            total_result_bytes=setup.total_result_bytes,
        )
        shown = dict(metrics)
        shown.update(result["extra"])
        counts = result["details"]["counts"]
        lines.append(
            "wrong answers by status: "
            + json.dumps(counts["wrong_by_status"], sort_keys=True)
            + f" (outside the distance column: {counts['wrong_outside_distance']})"
        )
        attempted, failed, correct = (
            result["attempted"],
            result["failed"],
            result["correct"],
        )
    else:
        setup, _, _ = timed_setups(args.workload, args.seed, 1)
        untraced = closed_pass(setup)
        traced = closed_pass(setup, traced=True)
        metrics = layer_metrics(untraced, traced)
        shown = dict(metrics)
        lines.extend(layer_table(traced))
        traced.recorder.write_jsonl(OUT_DIR / f"{tag}.spans.jsonl")
        report.update(
            counts=traced.counts.summary(),
            layer_self_us=scaled_self_us(traced),
            raw_layer_self_us=traced.recorder.self_us_per_query(),
            speed=traced.speed,
        )
        attempted = untraced.counts.attempted + traced.counts.attempted
        failed = untraced.counts.errors + traced.counts.errors
        correct = (
            untraced.counts.key() == traced.counts.key()
            and untraced.digests == traced.digests
            and traced.counts.wrong_other == 0
            and failed == 0
        )
    report["metrics"] = metrics
    report["correct"] = correct
    (OUT_DIR / f"{tag}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"noise reference: {noise:.3f} s for {NOISE_LOOP} loop iterations")
    for name, value in shown.items():
        print(f"{name:40s} {value:16.6f} {unit_of(name)}")
    for line in lines:
        print(line)
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            "perfbench: no program to measure (src/repro is missing)",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; use {WORKLOADS}")
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
