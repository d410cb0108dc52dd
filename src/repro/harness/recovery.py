"""Warm vs cold restart: what crash-consistent persistence buys.

Not a paper table — the paper's proxy loses its whole cache with the
process.  This experiment measures the hit-ratio recovery the
persistence subsystem (:mod:`repro.persistence`) provides after a
mid-trace crash, per caching scheme.

Protocol, per scheme:

1. **Warm-up** — replay the first ``crash_fraction`` of the measured
   trace through a proxy journaling every cache mutation to a fresh
   persistence directory.
2. **Crash** — stop the proxy at that query (the scheduled kill) and
   apply a seeded :class:`~repro.faults.crash.CrashPlan`'s tail damage
   to the journal: by default a torn final append (``truncate``), so
   recovery must stop cleanly at the tear.
3. **Warm restart** — build a new proxy over the damaged directory;
   construction runs :func:`~repro.persistence.recovery.recover_cache`
   and the report lands on ``proxy.recovery_report``.  Replay the rest
   of the trace.
4. **Cold restart** — replay the same remainder through a proxy with
   an empty cache (what every restart looked like before this
   subsystem existed).

The headline is ``warm_hit_ratio`` vs ``cold_hit_ratio`` on the
post-crash remainder: for the caching schemes, the recovered cache
answers repeats and contained queries that the cold proxy must forward
again.  The no-cache scheme journals nothing and recovers nothing —
its row is the experiment's control.

Everything is seeded and simulated-clock-driven, so the whole table is
deterministic, including the exact bytes the crash tears off.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.schemes import CachingScheme
from repro.faults.crash import CrashPlan
from repro.harness.config import ExperimentScale
from repro.harness.render import Column, as_dict, render_table
from repro.harness.runner import ExperimentRunner, Scenario

#: The schemes compared: no caching (control), passive, full semantic.
SCHEMES = (
    CachingScheme.NO_CACHE,
    CachingScheme.PASSIVE,
    CachingScheme.FULL_SEMANTIC,
)


@dataclass(frozen=True)
class SchemeRecovery:
    """One scheme's crash-and-restart measurements."""

    scheme: CachingScheme
    pre_crash_queries: int
    pre_crash_hit_ratio: float
    entries_at_crash: int
    journal_records: int
    damage: dict
    entries_restored: int
    entries_stale: int
    records_replayed: int
    stop_reason: str | None
    warm_hit_ratio: float
    cold_hit_ratio: float
    recovery_report: dict

    @property
    def warm_advantage(self) -> float:
        """Post-restart hit-ratio gain of recovering vs starting cold."""
        return self.warm_hit_ratio - self.cold_hit_ratio

    @property
    def restored_fraction(self) -> float:
        """Share of the pre-crash cache the warm restart got back."""
        if self.entries_at_crash == 0:
            return 0.0
        return self.entries_restored / self.entries_at_crash

    def to_dict(self) -> dict:
        return as_dict(self, derived=("restored_fraction", "warm_advantage"))


COLUMNS: tuple[Column, ...] = (
    ("Scheme", lambda row: row.scheme.value),
    ("entries", lambda row: row.entries_at_crash),
    ("restored", lambda row: row.entries_restored),
    ("stop", lambda row: row.stop_reason or "clean"),
    ("warm hit", lambda row: row.warm_hit_ratio),
    ("cold hit", lambda row: row.cold_hit_ratio),
    ("advantage", lambda row: row.warm_advantage),
)


@dataclass(frozen=True)
class RecoveryExperimentResult:
    """The warm-vs-cold restart table across caching schemes."""

    schemes: dict[str, SchemeRecovery]
    crash_fraction: float
    damage: str
    seed: int
    snapshot_every: int

    def to_dict(self) -> dict:
        return as_dict(self)

    def render(self) -> str:
        return render_table(
            "Crash recovery: post-restart hit ratio, warm (recovered "
            f"journal, {self.damage} tail damage) vs cold, after a crash "
            f"at {self.crash_fraction:.0%} of the trace",
            COLUMNS,
            list(self.schemes.values()),
        )


def run_recovery(
    runner: ExperimentRunner | None = None,
    scale: ExperimentScale | None = None,
    crash_fraction: float = 0.5,
    damage: str = "truncate",
    seed: int = 11,
    snapshot_every: int = 32,
    state_dir: str | Path | None = None,
) -> RecoveryExperimentResult:
    """Run the warm-vs-cold restart comparison.

    ``state_dir`` keeps each scheme's persistence directory (under
    ``<state_dir>/<scheme>``) instead of a temporary one — the CI smoke
    job uses this to upload the damaged journals with the report.  The
    experiment owns those directories: each is emptied before its
    warm-up, so a rerun never recovers an earlier run's journal.
    """
    if not 0.0 < crash_fraction < 1.0:
        raise ValueError(
            f"crash_fraction must be inside (0, 1): {crash_fraction}"
        )
    runner = runner or ExperimentRunner(scale or ExperimentScale.default())
    total = min(runner.scale.measure_queries, len(runner.trace))
    crash_at = max(1, int(total * crash_fraction))
    plan = CrashPlan(seed=seed, damage=damage)

    schemes: dict[str, SchemeRecovery] = {}
    with tempfile.TemporaryDirectory(prefix="repro-recovery-") as tmp:
        root = Path(tmp if state_dir is None else state_dir)
        for scheme in SCHEMES:
            directory = root / scheme.value
            if directory.exists():
                shutil.rmtree(directory)
            warm_up = Scenario(
                scheme,
                persistence=directory,
                snapshot_every=snapshot_every,
                queries=slice(crash_at),
            )
            schemes[scheme.value] = _scheme_row(
                runner, warm_up, slice(crash_at, total), plan
            )
    return RecoveryExperimentResult(
        schemes=schemes,
        crash_fraction=crash_fraction,
        damage=damage,
        seed=seed,
        snapshot_every=snapshot_every,
    )


def _scheme_row(
    runner: ExperimentRunner,
    warm_up: Scenario,
    rest: slice,
    plan: CrashPlan,
) -> SchemeRecovery:
    # Phase 1: warm-up with journaling.
    pre = runner.play(warm_up)
    persister = pre.deployment.persistence

    # Phase 2: the crash — the proxy stops here and the plan's seeded
    # damage tears the journal tail the way a kill mid-append would.
    damage_report = plan.session().apply_damage(persister.journal.path)

    # Phase 3: warm restart over the damaged directory; building the
    # proxy runs recovery and leaves the report on it.
    warm = runner.play(replace(warm_up, queries=rest))
    report = warm.deployment.recovery_report

    # Phase 4: cold restart — the pre-persistence baseline.
    cold = runner.play(replace(warm_up, queries=rest, persistence=None))

    return SchemeRecovery(
        scheme=warm_up.scheme,
        pre_crash_queries=len(pre.stats),
        pre_crash_hit_ratio=pre.stats.hit_ratio,
        entries_at_crash=len(pre.deployment.cache),
        journal_records=persister.total_records,
        damage=damage_report,
        entries_restored=report.entries_restored,
        entries_stale=report.entries_stale,
        records_replayed=report.records_replayed,
        stop_reason=report.stop_reason,
        warm_hit_ratio=warm.stats.hit_ratio,
        cold_hit_ratio=cold.stats.hit_ratio,
        recovery_report=report.to_dict(),
    )
