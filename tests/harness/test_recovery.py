"""The crash-recovery experiment: warm vs cold restart after a torn
journal tail."""

import pytest

from repro.harness.config import ExperimentScale
from repro.harness.recovery import SCHEMES, run_recovery
from repro.harness.runner import ExperimentRunner

ROW_KEYS = {
    "scheme",
    "pre_crash_queries",
    "pre_crash_hit_ratio",
    "entries_at_crash",
    "journal_records",
    "damage",
    "entries_restored",
    "entries_stale",
    "records_replayed",
    "stop_reason",
    "restored_fraction",
    "warm_hit_ratio",
    "cold_hit_ratio",
    "warm_advantage",
    "recovery_report",
}


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(ExperimentScale.quick().with_trace_length(120))


@pytest.fixture(scope="module")
def result(runner):
    return run_recovery(runner)


class TestCrashConsistency:
    def test_torn_tail_stops_replay_and_keeps_the_prefix(self, result):
        for label in ("pc", "ac-full"):
            row = result.schemes[label]
            assert row.stop_reason == "torn"
            assert row.entries_at_crash - 1 <= row.entries_restored
            assert row.entries_restored <= row.entries_at_crash

    def test_warm_restart_beats_cold(self, result):
        ac = result.schemes["ac-full"]
        assert ac.warm_hit_ratio > ac.cold_hit_ratio

    def test_no_cache_control_recovers_nothing(self, result):
        nc = result.schemes["nc"]
        assert nc.journal_records == 0
        assert nc.warm_hit_ratio == nc.cold_hit_ratio

    @pytest.mark.parametrize("crash_fraction", [0.0, 1.0])
    def test_crash_must_fall_inside_the_trace(self, runner, crash_fraction):
        with pytest.raises(ValueError, match="crash_fraction"):
            run_recovery(runner, crash_fraction=crash_fraction)


class TestStateDir:
    def test_rerun_over_one_state_dir_starts_fresh(self, runner, tmp_path):
        first = run_recovery(runner, state_dir=tmp_path)
        second = run_recovery(runner, state_dir=tmp_path)
        assert first.to_dict() == second.to_dict()
        for label in ("pc", "ac-full"):
            assert second.schemes[label].stop_reason == "torn"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            scheme.value for scheme in SCHEMES
        )


class TestWireForm:
    def test_to_dict_shape(self, result):
        payload = result.to_dict()
        assert set(payload) == {
            "crash_fraction",
            "damage",
            "seed",
            "snapshot_every",
            "schemes",
        }
        assert payload["damage"] == "truncate"
        assert list(payload["schemes"]) == [s.value for s in SCHEMES]
        for label, row in payload["schemes"].items():
            assert set(row) == ROW_KEYS
            assert row["scheme"] == label
            scheme = result.schemes[label]
            assert row["restored_fraction"] == scheme.restored_fraction
            assert row["warm_advantage"] == scheme.warm_advantage

    def test_render_has_one_line_per_scheme(self, result):
        lines = result.render().splitlines()
        assert lines[0].startswith("Crash recovery")
        assert "truncate tail damage" in lines[0]
        assert lines[2].split() == [
            "Scheme",
            "entries",
            "restored",
            "stop",
            "warm",
            "hit",
            "cold",
            "hit",
            "advantage",
        ]
        rows = [line.split()[0] for line in lines[4:]]
        assert rows == [scheme.value for scheme in SCHEMES]
        assert lines[4].split()[3] == "clean"  # nc: nothing to tear
