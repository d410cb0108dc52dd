"""The proxy's cache manager.

Stores whole query results keyed by the query that produced them,
enforces a byte budget with LRU replacement, and keeps the *cache
description* — the per-template metadata (regions and signatures) the
query processor probes — synchronized with the stored results.

Design notes
------------
* The unit of caching is one query's full result (as in the paper,
  which stores one XML result file per cached query).
* An entry whose producing query carried TOP-N and hit the limit is
  marked ``truncated``: its result is a prefix of the true region
  result, so it can serve *exact matches only*, never containment.
* LRU is an assumption — the paper does not name its replacement
  policy; DESIGN.md records the choice, and the policy is pluggable
  (:mod:`repro.core.replacement`) so the replacement ablation can
  compare alternatives.
* The cache *description* is owned by this manager and mutated only
  through it.  Candidates handed out by the description are read
  through the result store, which may raise
  :class:`~repro.core.store.ResultStoreError` (a file-backed store
  with a missing or corrupt file); the proxy's serve path falls back
  to forwarding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.costs import ProxyCostModel
from repro.core.description import CacheDescription
from repro.core.store import MemoryResultStore
from repro.geometry.regions import Region
from repro.obs.decisions import EvictionRecord
from repro.relational.result import ResultTable
from repro.templates.manager import BoundQuery


class CacheError(Exception):
    """Cache misuse (unknown entries, double insertion)."""


@dataclass(eq=False)
class CacheEntry:
    """One cached query result's metadata.

    Identity (not value) equality: two entries are the same only if they
    are the same object; ``entry_id`` is the stable handle.  The result
    tuples themselves live in the cache manager's *result store* (the
    paper keeps them as XML files on disk); ``result`` fetches them,
    while ``row_count`` and ``byte_size`` are metadata kept here so the
    proxy can rank candidates without touching storage.
    """

    entry_id: int
    template_id: str
    cache_key: tuple
    region: Region
    signature: str
    truncated: bool
    byte_size: int
    row_count: int
    store: "object"
    last_used: int = 0
    access_count: int = 0

    @property
    def result(self) -> ResultTable:
        """The stored result (a storage read for file-backed stores)."""
        return self.store.get(self.entry_id)

    def __repr__(self) -> str:
        return (
            f"<CacheEntry {self.entry_id} {self.template_id} "
            f"{self.row_count} rows>"
        )


@dataclass
class MaintenanceReport:
    """What a cache mutation cost, for the simulated clock.

    ``evictions`` additionally names each victim with the replacement
    policy's rationale, feeding the explain layer's decision traces;
    ``evicted_entries`` stays the count the cost model charges on.
    """

    stored_bytes: int = 0
    evicted_entries: int = 0
    description_work: float = 0.0  # model-specific units (entries/nodes)
    evictions: list[EvictionRecord] = field(default_factory=list)

    def charge_ms(self, costs: ProxyCostModel) -> float:
        return (
            costs.store_ms(self.stored_bytes)
            + costs.evict_per_entry_ms * self.evicted_entries
            + self.description_work
        )


class CacheManager:
    """Byte-budgeted LRU store of query results with a description."""

    def __init__(
        self,
        description: CacheDescription,
        max_bytes: int | None = None,
        costs: ProxyCostModel | None = None,
        result_store=None,
        policy=None,
        observer=None,
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise CacheError(f"negative cache budget: {max_bytes}")
        # Imported here: replacement builds on CacheEntry from this module.
        from repro.core.replacement import LruPolicy

        self.description = description
        self.max_bytes = max_bytes
        self.costs = costs or ProxyCostModel()
        self.result_store = result_store or MemoryResultStore()
        self.policy = policy or LruPolicy()
        #: Optional observability hook with a ``cache_event(kind,
        #: n_bytes, current_bytes, entries)`` method (see
        #: :class:`repro.obs.instrument.ProxyInstrumentation`).
        self.observer = observer
        #: Optional durability hook with ``admitted(entry)``,
        #: ``removed(entry, reason)`` and ``cleared(removed)`` methods
        #: (see :class:`repro.persistence.persister.CachePersister`).
        #: Reasons are ``evict`` (budget pressure), ``consolidate``
        #: (region containment) and ``replace`` (identical query
        #: re-admitted); a full flush is one ``cleared`` record, not a
        #: stream of per-entry removals.
        self.mutation_log = None
        self._entries: dict[int, CacheEntry] = {}
        self._by_key: dict[tuple, int] = {}
        self._ids = itertools.count(1)
        self._tick = itertools.count(1)
        self.current_bytes = 0
        self.insertions = 0
        self.evictions = 0

    # ------------------------------------------------------------ lookup
    def __len__(self) -> int:
        return len(self._entries)

    def exact_match(self, bound: BoundQuery) -> CacheEntry | None:
        """The entry produced by an identical query, if cached."""
        entry_id = self._by_key.get(bound.cache_key())
        if entry_id is None:
            return None
        return self._entries[entry_id]

    def entries(self) -> Iterable[CacheEntry]:
        return list(self._entries.values())

    def entry(self, entry_id: int) -> CacheEntry:
        try:
            return self._entries[entry_id]
        except KeyError:
            raise CacheError(f"unknown cache entry {entry_id}") from None

    def touch(self, entry: CacheEntry) -> None:
        """Record a use, for the replacement policy.

        A no-op for entries no longer cached: the policy must not
        resurrect bookkeeping for a dead entry."""
        if entry.entry_id not in self._entries:
            return
        entry.last_used = next(self._tick)
        entry.access_count += 1
        self.policy.on_access(entry)

    # ------------------------------------------------------------- store
    def store(
        self,
        bound: BoundQuery,
        result: ResultTable,
        signature: str,
        truncated: bool,
    ) -> tuple[CacheEntry | None, MaintenanceReport]:
        """Cache a query result, evicting LRU entries to fit.

        Returns ``(entry, report)``; ``entry`` is None when the result
        alone exceeds the whole budget (then nothing is cached — the
        paper's cache stores whole files or nothing).
        """
        report = MaintenanceReport()
        key = bound.cache_key()
        existing = self._by_key.get(key)
        if existing is not None:
            # An identical query is already cached; replace it.
            old = self._entries[existing]
            report.description_work += self._remove(old)
            self._log_removed(old, "replace")
        size = result.byte_size()
        if self.max_bytes is not None and size > self.max_bytes:
            return None, report
        report.description_work += self._make_room(size, report)
        entry = CacheEntry(
            entry_id=next(self._ids),
            template_id=bound.template_id,
            cache_key=key,
            region=bound.region,
            signature=signature,
            truncated=truncated,
            byte_size=size,
            row_count=len(result),
            store=self.result_store,
            last_used=next(self._tick),
        )
        self.result_store.put(entry.entry_id, result)
        self._entries[entry.entry_id] = entry
        self._by_key[key] = entry.entry_id
        self.policy.on_insert(entry)
        self.current_bytes += size
        self.insertions += 1
        report.stored_bytes = size
        report.description_work += self.description.add(entry)
        self._notify("insert", size)
        if self.mutation_log is not None:
            self.mutation_log.admitted(entry)
        return entry, report

    def clear(self) -> int:
        """Drop every entry (origin data-version change); returns the
        number of entries removed."""
        removed = 0
        for entry in list(self._entries.values()):
            self._remove(entry)
            removed += 1
        if removed:
            self._notify("clear", 0)
            if self.mutation_log is not None:
                self.mutation_log.cleared(removed)
        return removed

    def remove(self, entry: CacheEntry) -> MaintenanceReport:
        """Remove a specific entry (region-containment consolidation).

        Idempotent: consolidation may target an entry that the eviction
        making room for the merged result already removed.
        """
        report = MaintenanceReport()
        if entry.entry_id in self._entries:
            report.description_work += self._remove(entry)
            self._notify("remove", entry.byte_size)
            self._log_removed(entry, "consolidate")
        return report

    # ----------------------------------------------------------- private
    def _make_room(self, incoming: int, report: MaintenanceReport) -> float:
        if self.max_bytes is None:
            return 0.0
        work = 0.0
        while self.current_bytes + incoming > self.max_bytes and self._entries:
            victim = self.policy.victim(self._entries.values())
            # Rationale before removal: policies may consult bookkeeping
            # that on_evict tears down.
            report.evictions.append(
                EvictionRecord(
                    entry_id=victim.entry_id,
                    policy=self.policy.name,
                    rationale=self.policy.rationale(victim),
                    byte_size=victim.byte_size,
                )
            )
            work += self._remove(victim)
            report.evicted_entries += 1
            self.evictions += 1
            self._notify("evict", victim.byte_size)
            self._log_removed(victim, "evict")
        return work

    def _log_removed(self, entry: CacheEntry, reason: str) -> None:
        if self.mutation_log is not None:
            self.mutation_log.removed(entry, reason)

    def _notify(self, kind: str, n_bytes: int) -> None:
        if self.observer is not None:
            self.observer.cache_event(
                kind, n_bytes, self.current_bytes, len(self._entries)
            )

    def _remove(self, entry: CacheEntry) -> float:
        self._by_key.pop(entry.cache_key, None)
        del self._entries[entry.entry_id]
        self.current_bytes -= entry.byte_size
        self.result_store.remove(entry.entry_id)
        self.policy.on_evict(entry)
        return self.description.remove(entry)
