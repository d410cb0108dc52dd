"""The saturation experiment: graceful degradation under offered load."""

import pytest

from repro.harness.config import ExperimentScale
from repro.harness.runner import ExperimentRunner
from repro.harness.saturation import (
    FULL_LADDER,
    QUICK_LADDER,
    ladder_for,
    run_saturation,
)


@pytest.fixture(scope="module")
def result():
    scale = ExperimentScale.quick().with_trace_length(60)
    return run_saturation(ExperimentRunner(scale), ladder=(4, 32, 200))


class TestSaturation:
    def test_ladder_selection(self):
        assert ladder_for(ExperimentScale.quick()) == QUICK_LADDER
        assert ladder_for(ExperimentScale.default()) == FULL_LADDER
        assert FULL_LADDER[-1] >= 10_000

    def test_throughput_plateaus(self, result):
        assert result.peak_throughput_qps > 0.0
        assert result.plateau_fraction >= 0.8

    def test_shed_fraction_rises_with_load(self, result):
        sheds = [point.shed_fraction for point in result.points]
        assert sheds == sorted(sheds)
        assert sheds[0] < sheds[-1]

    def test_admitted_latency_bounded_by_deadline(self, result):
        for point in result.points:
            assert 0.0 < point.p95_admitted_ms <= result.deadline_ms

    def test_never_raises_accounting(self, result):
        for point in result.points:
            assert point.records == point.submitted
            assert (
                point.served
                + point.shed
                + point.timed_out
                + point.failed
                == point.records
            )

    def test_wire_form_and_rendering(self, result):
        payload = result.to_dict()
        assert len(payload["points"]) == 3
        assert payload["points"][0]["n_clients"] == 4
        assert payload["admission"]["config"]["max_inflight"] == 8
        text = result.render()
        assert "clients" in text
        assert "shed frac" in text
