"""Warm-restart recovery: snapshot + journal -> a rebuilt cache.

``recover_cache`` replays persistence state into a fresh
:class:`~repro.core.cache.CacheManager` in four phases, each under its
own tracer span:

1. **snapshot load** — the last full cache image, or nothing (a
   malformed snapshot is diagnosed and treated as absent, never fatal);
2. **journal replay** — walk the journal's intact record prefix and
   apply each mutation to an in-memory image keyed by the *old* entry
   ids (admit inserts, evict deletes, clear empties).  The walk stops
   cleanly at the first torn or CRC-failing record: a crash loses at
   most the mutations past the tear, never the prefix;
3. **version fencing** — drop every surviving entry whose recorded
   origin ``data_version`` does not match the origin's *current*
   version.  This is what makes recovery safe against PR 3's scheduled
   version bumps: a proxy that died before noticing a bump (or while
   the origin moved on without it) must not serve stale-versioned
   regions after restart;
4. **materialize** — re-admit survivors through the normal
   ``CacheManager.store`` path (journaling suspended), re-binding each
   query through the template manager so the cache description — array
   or R-tree, whatever the restarted proxy uses — is rebuilt from the
   serialized region descriptions.  A survivor that no longer binds
   (template changed across restart) is dropped as an error, and a
   byte-budgeted cache may evict during restore exactly as it would
   during traffic.

The structured :class:`RecoveryReport` captures every disposition and
feeds ``recovery_entries_total{disposition}`` plus the
``GET /persistence`` endpoint.  Recovery never raises for damaged
state — only for programmer errors (an unbound persister).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.persistence.errors import SnapshotFormatError
from repro.persistence.records import (
    AdmitRecord,
    ClearRecord,
    EvictRecord,
    region_from_dict,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cache import CacheManager
    from repro.persistence.persister import CachePersister
    from repro.templates.manager import TemplateManager


@dataclass
class RecoveryReport:
    """What one warm restart restored, dropped, and replayed."""

    snapshot_loaded: bool = False
    snapshot_entries: int = 0
    snapshot_error: str = ""
    records_replayed: int = 0
    record_counts: dict[str, int] = field(default_factory=dict)
    bytes_replayed: int = 0
    bytes_total: int = 0
    stop_reason: str | None = None  # None | "torn" | "corrupt"
    stop_detail: str = ""
    data_version: int | None = None
    entries_restored: int = 0
    entries_stale: int = 0
    entries_foreign: int = 0
    entries_error: int = 0
    entries_rejected: int = 0
    entries_evicted: int = 0
    evictions: list[dict[str, Any]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the journal replayed to its end undamaged."""
        return self.stop_reason is None

    def to_dict(self) -> dict[str, Any]:
        return {
            "snapshot_loaded": self.snapshot_loaded,
            "snapshot_entries": self.snapshot_entries,
            "snapshot_error": self.snapshot_error,
            "records_replayed": self.records_replayed,
            "record_counts": dict(self.record_counts),
            "bytes_replayed": self.bytes_replayed,
            "bytes_total": self.bytes_total,
            "stop_reason": self.stop_reason,
            "stop_detail": self.stop_detail,
            "data_version": self.data_version,
            "entries_restored": self.entries_restored,
            "entries_stale": self.entries_stale,
            "entries_foreign": self.entries_foreign,
            "entries_error": self.entries_error,
            "entries_rejected": self.entries_rejected,
            "entries_evicted": self.entries_evicted,
            "evictions": list(self.evictions),
            "errors": list(self.errors),
        }


def _span(obs: Any, name: str, **attrs: Any) -> Any:
    tracer = getattr(obs, "tracer", None)
    if tracer is None:
        return nullcontext()
    return tracer.span(name, **attrs)


def recover_cache(
    persister: "CachePersister",
    cache: "CacheManager",
    templates: "TemplateManager",
    obs: Any = None,
) -> RecoveryReport:
    """Rebuild ``cache`` from ``persister``'s snapshot + journal.

    Returns the structured report; also stores it on the persister
    (for ``GET /persistence``) and, when the restore changed anything,
    re-checkpoints so the damaged tail is repaired on disk.
    """
    report = RecoveryReport()
    report.data_version = persister.current_version()

    with _span(obs, "recovery"):
        # Phase 1: snapshot -------------------------------------------------
        with _span(obs, "snapshot_load"):
            try:
                snapshot = persister.load_snapshot()
            except SnapshotFormatError as exc:
                snapshot = None
                report.snapshot_error = str(exc)
            image: dict[int, AdmitRecord] = {}
            if snapshot is not None:
                report.snapshot_loaded = True
                report.snapshot_entries = len(snapshot.entries)
                for record in snapshot.entries:
                    image[record.entry_id] = record

        # Phase 2: journal replay ------------------------------------------
        with _span(obs, "journal_replay") as replay_span:
            read = persister.journal.read()
            report.records_replayed = len(read.records)
            report.bytes_replayed = read.bytes_replayed
            report.bytes_total = read.bytes_total
            report.stop_reason = read.stop_reason
            report.stop_detail = read.stop_detail
            for record in read.records:
                report.record_counts[record.type] = (
                    report.record_counts.get(record.type, 0) + 1
                )
                if obs is not None:
                    obs.journal_replayed(record.type)
                if isinstance(record, AdmitRecord):
                    image[record.entry_id] = record
                elif isinstance(record, EvictRecord):
                    image.pop(record.entry_id, None)
                elif isinstance(record, ClearRecord):
                    image.clear()
            if replay_span is not None and hasattr(replay_span, "annotate"):
                replay_span.annotate(
                    records=report.records_replayed,
                    bytes=report.bytes_replayed,
                    stop=report.stop_reason or "clean",
                )

        # Phases 3+4: fence versions, then materialize ---------------------
        with _span(obs, "materialize"):
            persister.suspended = True
            local_shard = persister.shard_id
            try:
                for record in image.values():
                    # Foreign-tagged records (a handoff file replayed
                    # on the wrong shard, or a copied directory) are
                    # skipped, not re-admitted: the ring owner serves
                    # them now.
                    if (
                        record.shard is not None
                        and record.shard != local_shard
                    ):
                        report.entries_foreign += 1
                        continue
                    if (
                        report.data_version is not None
                        and record.data_version != report.data_version
                    ):
                        report.entries_stale += 1
                        continue
                    _materialize(record, cache, templates, report)
            finally:
                persister.suspended = False

    if obs is not None:
        obs.recovery_disposition("restored", report.entries_restored)
        obs.recovery_disposition("stale", report.entries_stale)
        obs.recovery_disposition("foreign", report.entries_foreign)
        obs.recovery_disposition("error", report.entries_error)
        obs.recovery_disposition("rejected", report.entries_rejected)

    persister.last_recovery = report.to_dict()
    # Repair the tail: the restored state becomes the new snapshot and
    # the (possibly damaged) journal is truncated behind it.
    persister.checkpoint()
    return report


def _materialize(
    record: AdmitRecord,
    cache: "CacheManager",
    templates: "TemplateManager",
    report: RecoveryReport,
) -> None:
    """Re-admit one journal/snapshot entry through the cache manager."""
    from repro.relational.result import ResultTable

    try:
        region = region_from_dict(record.region)
        result = ResultTable.from_xml(record.result_xml)
        bound = templates.bind(record.template_id, record.params)
        if bound.region != region:
            raise ValueError(
                "re-bound region disagrees with the journaled region "
                "(template changed across restart?)"
            )
    except Exception as exc:  # defensive: one bad entry must not abort
        report.entries_error += 1
        if len(report.errors) < 8:
            report.errors.append(
                f"entry {record.entry_id} ({record.template_id}): {exc}"
            )
        return
    entry, maintenance = cache.store(
        bound, result, record.signature, record.truncated
    )
    report.entries_evicted += maintenance.evicted_entries
    for eviction in maintenance.evictions:
        report.evictions.append(eviction.to_dict())
    if entry is None:
        report.entries_rejected += 1
    else:
        report.entries_restored += 1
