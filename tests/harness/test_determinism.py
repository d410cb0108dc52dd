"""Every scenario experiment is a pure function of its inputs: the same
scale, seed and arguments give the same table, run after run."""

import pytest

from repro.harness.config import ExperimentScale
from repro.harness.fault_availability import run_fault_availability
from repro.harness.recovery import run_recovery
from repro.harness.runner import ExperimentRunner
from repro.harness.saturation import run_saturation
from repro.harness.shard_availability import run_shard_availability

#: experiment -> (trace length, one run of it on a runner).
CASES = {
    "fault_availability": (40, run_fault_availability),
    "recovery": (40, run_recovery),
    "saturation": (40, lambda runner: run_saturation(runner, ladder=(4, 48))),
    "shard_availability": (
        80,
        lambda runner: run_shard_availability(
            runner,
            shard_counts=(2,),
            crash_ms=6_000.0,
            n_clients=6,
            queries_per_client=3,
            think_time_ms=1_000.0,
        ),
    ),
}


@pytest.mark.parametrize("experiment", sorted(CASES))
def test_determinism(experiment):
    trace_length, run = CASES[experiment]
    scale = ExperimentScale.quick().with_trace_length(trace_length)
    runner = ExperimentRunner(scale)
    assert run(runner).to_dict() == run(runner).to_dict()
