"""Cache descriptions: the metadata structure probed per query.

The *cache description* (paper Figure 4) records, for every cached
result, the region its query selected.  Answering a new query starts by
probing the description for cached regions that could relate to the new
region.  The paper compares two implementations:

* **array** (``ACNR``) — a flat box matrix, linearly scanned;
* **R-tree** (``ACR``) — bounding boxes indexed in an R-tree.

Both return *candidates*; the query processor then runs the exact
region-relation check on each.  Each returns the amount of simulated
work its probe or update performed (already converted to milliseconds
via the supplied cost model), so the two implementations are charged
differently exactly as the paper's measurements show: the R-tree visits
fewer entries per probe but pays more per maintenance operation.

Entries of different *templates* live in disjoint sub-descriptions:
regions from different templates inhabit different coordinate spaces
(a 3-d chord sphere vs a 2-d sky rectangle) and are never compared.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.core.costs import ProxyCostModel
from repro.core.rtree import RTree
from repro.geometry.regions import EPSILON, GeometryError, HyperRect, Region

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.cache import CacheEntry


class CacheDescription(Protocol):
    """Probe-and-maintain interface shared by array and R-tree."""

    #: Short implementation tag ("array", "rtree"); the profiler names
    #: its probe stage ``probe.<kind>`` after it.
    kind: str

    def add(self, entry: "CacheEntry") -> float:
        """Index an entry; returns simulated maintenance milliseconds."""

    def remove(self, entry: "CacheEntry") -> float:
        """Unindex an entry; returns simulated maintenance milliseconds."""

    def candidates(
        self, template_id: str, region: Region
    ) -> tuple[list["CacheEntry"], float]:
        """Entries of ``template_id`` possibly related to ``region``.

        Returns ``(candidates, probe_ms)``.  May overapproximate (the
        caller runs exact relation checks) but must never miss an entry
        whose region intersects ``region``.
        """


#: Rows a template's box matrix starts with; it doubles when full.
_INITIAL_ROWS = 16


class _BoxMatrix:
    """One template's entries as N×d ``lows``/``highs`` box rows.

    Row ``i`` holds the bounding box of ``entries[i]``; rows follow add
    order, so probes return candidates in insertion order.  A removed
    entry leaves a dead row (lows ``+inf``, highs ``-inf``) that no
    probe box intersects; the rows compact, keeping their order, once
    dead rows outnumber live ones.  ``rows`` maps each live entry id to
    its row; rows past ``len(entries)`` are unused capacity.  ``len()``
    is the live entry count.
    """

    def __init__(self, dims: int) -> None:
        self.dims = dims
        self.lows = np.empty((_INITIAL_ROWS, dims))
        self.highs = np.empty((_INITIAL_ROWS, dims))
        self.entries: list["CacheEntry"] = []
        self.rows: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def _check_dims(self, box: HyperRect) -> None:
        if box.dims != self.dims:
            raise GeometryError(
                f"dimension mismatch: {box.dims}-d region vs "
                f"{self.dims}-d template"
            )

    def add(self, entry: "CacheEntry") -> None:
        box = entry.region.bounding_box()
        self._check_dims(box)
        row = self.rows.get(entry.entry_id)
        if row is None:
            row = len(self.entries)
            if row == len(self.lows):
                self._grow()
            self.entries.append(entry)
            self.rows[entry.entry_id] = row
        else:
            self.entries[row] = entry
        self.lows[row] = box.lows
        self.highs[row] = box.highs

    def remove(self, entry_id: int) -> None:
        row = self.rows.pop(entry_id, None)
        if row is None:
            return
        self.lows[row] = np.inf
        self.highs[row] = -np.inf
        if len(self.entries) - len(self.rows) > len(self.rows):
            self._compact()

    def _grow(self) -> None:
        self.lows = np.concatenate((self.lows, np.empty_like(self.lows)))
        self.highs = np.concatenate((self.highs, np.empty_like(self.highs)))

    def _compact(self) -> None:
        live = sorted(self.rows.values())
        self.lows[: len(live)] = self.lows[live]
        self.highs[: len(live)] = self.highs[live]
        self.entries = [self.entries[row] for row in live]
        self.rows = {
            entry.entry_id: row for row, entry in enumerate(self.entries)
        }

    def intersecting(self, box: HyperRect) -> list["CacheEntry"]:
        """Live entries whose box meets ``box`` (within ``EPSILON``).

        The same IEEE comparison ``HyperRect.intersect`` makes per
        entry, over all rows at once; dead rows always fail it.
        """
        self._check_dims(box)
        used = len(self.entries)
        disjoint = np.any(
            np.maximum(self.lows[:used], box.lows)
            > np.minimum(self.highs[:used], box.highs) + EPSILON,
            axis=1,
        )
        return [self.entries[row] for row in np.flatnonzero(~disjoint)]


class ArrayDescription:
    """Per-template box matrices, scanned linearly (ACNR).

    Each probe tests every entry of the template, as the paper's array
    does, but as one vectorized bounding-box comparison over the
    template's :class:`_BoxMatrix` rather than one Python step per
    entry.
    """

    kind = "array"

    def __init__(self, costs: ProxyCostModel | None = None) -> None:
        self.costs = costs or ProxyCostModel()
        self._by_template: dict[str, _BoxMatrix] = {}

    def add(self, entry: "CacheEntry") -> float:
        matrix = self._by_template.get(entry.template_id)
        if matrix is None:
            matrix = _BoxMatrix(entry.region.dims)
            self._by_template[entry.template_id] = matrix
        matrix.add(entry)
        return self.costs.array_update_ms

    def remove(self, entry: "CacheEntry") -> float:
        matrix = self._by_template.get(entry.template_id)
        if matrix is not None:
            matrix.remove(entry.entry_id)
        return self.costs.array_update_ms

    def candidates(
        self, template_id: str, region: Region
    ) -> tuple[list["CacheEntry"], float]:
        matrix = self._by_template.get(template_id)
        if matrix is None:
            return [], 0.0
        # Linear scan: every live entry of the template is charged; the
        # bounding-box rejection mirrors the real implementation's
        # per-entry comparison before the exact check.
        probe_ms = self.costs.check_per_array_entry_ms * len(matrix)
        return matrix.intersecting(region.bounding_box()), probe_ms


class RTreeDescription:
    """Per-template R-trees over region bounding boxes (ACR)."""

    kind = "rtree"

    def __init__(
        self, costs: ProxyCostModel | None = None, max_entries: int = 8
    ) -> None:
        self.costs = costs or ProxyCostModel()
        self.max_entries = max_entries
        self._trees: dict[str, RTree] = {}
        self._entries: dict[str, dict[int, "CacheEntry"]] = {}

    def _tree_for(self, entry: "CacheEntry") -> RTree:
        tree = self._trees.get(entry.template_id)
        if tree is None:
            tree = RTree(entry.region.dims, max_entries=self.max_entries)
            self._trees[entry.template_id] = tree
        return tree

    def add(self, entry: "CacheEntry") -> float:
        tree = self._tree_for(entry)
        tree.insert(entry.entry_id, entry.region.bounding_box())
        self._entries.setdefault(entry.template_id, {})[
            entry.entry_id
        ] = entry
        return self.costs.rtree_update_per_node_ms * max(
            tree.nodes_visited, 1
        )

    def remove(self, entry: "CacheEntry") -> float:
        tree = self._trees.get(entry.template_id)
        if tree is None or entry.entry_id not in tree:
            return 0.0
        tree.delete(entry.entry_id)
        self._entries.get(entry.template_id, {}).pop(entry.entry_id, None)
        return self.costs.rtree_update_per_node_ms * max(
            tree.nodes_visited, 1
        )

    def candidates(
        self, template_id: str, region: Region
    ) -> tuple[list["CacheEntry"], float]:
        tree = self._trees.get(template_id)
        if tree is None:
            return [], 0.0
        ids = tree.search(region.bounding_box())
        probe_ms = self.costs.check_per_rtree_node_ms * tree.nodes_visited
        bucket = self._entries.get(template_id, {})
        return [bucket[entry_id] for entry_id in ids], probe_ms
