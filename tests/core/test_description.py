"""Array and R-tree cache descriptions agree on candidates."""

import random

import pytest

from repro.core.cache import CacheEntry, CacheManager
from repro.core.description import ArrayDescription, RTreeDescription
from repro.core.store import MemoryResultStore
from repro.geometry.regions import EPSILON, HyperRect, HyperSphere
from repro.templates.skyserver_templates import (
    RADIAL_TEMPLATE_ID,
    RECT_TEMPLATE_ID,
)


@pytest.fixture()
def filled(templates, origin, radial_params):
    """Both descriptions filled with the same entries."""
    array_cache = CacheManager(ArrayDescription())
    rtree_cache = CacheManager(RTreeDescription())
    bounds = []
    for i in range(12):
        params = dict(
            radial_params,
            ra=162.0 + i * 0.4,
            dec=7.0 + (i % 3) * 0.5,
            radius=4.0 + i,
        )
        bound = templates.bind(RADIAL_TEMPLATE_ID, params)
        result = origin.execute_bound(bound).result
        array_cache.store(bound, result, "sig", False)
        rtree_cache.store(bound, result, "sig", False)
        bounds.append(bound)
    return array_cache, rtree_cache, bounds


def keys(entries):
    return {entry.cache_key for entry in entries}


class TestAgreement:
    def test_same_survivors_for_each_probe(self, filled, templates,
                                           radial_params):
        array_cache, rtree_cache, bounds = filled
        for probe in bounds:
            array_entries, _ = array_cache.description.candidates(
                RADIAL_TEMPLATE_ID, probe.region
            )
            rtree_entries, _ = rtree_cache.description.candidates(
                RADIAL_TEMPLATE_ID, probe.region
            )
            assert keys(array_entries) == keys(rtree_entries)

    def test_both_empty_for_unknown_template(self, filled):
        array_cache, rtree_cache, bounds = filled
        probe = bounds[0]
        for cache in (array_cache, rtree_cache):
            entries, probe_ms = cache.description.candidates(
                RECT_TEMPLATE_ID, probe.region
            )
            assert entries == []


class TestCosting:
    def test_array_probe_cost_scales_with_entries(self, filled):
        array_cache, _rtree_cache, bounds = filled
        _, probe_ms = array_cache.description.candidates(
            RADIAL_TEMPLATE_ID, bounds[0].region
        )
        expected = (
            array_cache.costs.check_per_array_entry_ms * len(array_cache)
        )
        assert probe_ms == pytest.approx(expected)

    def test_rtree_maintenance_charges_more_than_array(
        self, templates, origin, radial_params
    ):
        array_cache = CacheManager(ArrayDescription())
        rtree_cache = CacheManager(RTreeDescription())
        bound = templates.bind(RADIAL_TEMPLATE_ID, radial_params)
        result = origin.execute_bound(bound).result
        _, array_report = array_cache.store(bound, result, "sig", False)
        _, rtree_report = rtree_cache.store(bound, result, "sig", False)
        assert rtree_report.description_work > (
            array_report.description_work
        )


class ReferenceScan:
    """The per-entry array scan: one ``HyperRect.intersect`` per entry.

    Entries live in per-template dicts, so candidates come back in
    insertion order; :class:`ArrayDescription` must match it exactly.
    """

    def __init__(self, costs):
        self.costs = costs
        self.by_template = {}

    def add(self, entry):
        self.by_template.setdefault(entry.template_id, {})[
            entry.entry_id
        ] = entry

    def remove(self, entry):
        self.by_template.get(entry.template_id, {}).pop(entry.entry_id, None)

    def candidates(self, template_id, region):
        entries = list(self.by_template.get(template_id, {}).values())
        box = region.bounding_box()
        survivors = [
            entry
            for entry in entries
            if entry.region.bounding_box().intersect(box) is not None
        ]
        return survivors, self.costs.check_per_array_entry_ms * len(entries)


class TestOrderExactScan:
    """A seeded add/remove/probe replay against the reference scan."""

    STORE = MemoryResultStore()

    def entry(self, entry_id, template_id, region):
        return CacheEntry(
            entry_id=entry_id,
            template_id=template_id,
            cache_key=(template_id, entry_id),
            region=region,
            signature="",
            truncated=False,
            byte_size=100,
            row_count=1,
            store=self.STORE,
        )

    @staticmethod
    def sphere(rng):
        center = tuple(rng.uniform(0.0, 1.0) for _ in range(3))
        return HyperSphere(center, rng.choice((0.0, 0.01, 0.05, 0.2)))

    @staticmethod
    def rect(rng):
        # Grid-aligned corners make touching boxes common.
        lows = [rng.randrange(8) / 8 for _ in range(2)]
        return HyperRect(
            tuple(lows), tuple(lo + rng.randrange(3) / 8 for lo in lows)
        )

    @staticmethod
    def touching(entry, delta):
        """A probe box starting ``delta`` past ``entry``'s high corner."""
        box = entry.region.bounding_box()
        lows = tuple(hi + delta for hi in box.highs)
        return HyperRect(lows, tuple(lo + 0.1 for lo in lows))

    def test_candidates_and_cost_match_in_order(self):
        rng = random.Random(20040330)
        description = ArrayDescription()
        reference = ReferenceScan(description.costs)
        live = []
        removed = []
        next_id = 1
        used_rows = {"sphere": [], "rect": []}
        probes = 0

        def check(template_id, region):
            nonlocal probes
            got = description.candidates(template_id, region)
            want = reference.candidates(template_id, region)
            # Entries compare by identity: same entries, same order.
            assert got[0] == want[0]
            assert got[1] == want[1]
            probes += 1

        for step in range(1_500):
            # Grow for the first half, then shrink below the
            # compaction threshold.
            action = rng.random()
            grow = step < 750
            if live and action < (0.2 if grow else 0.6):
                entry = live.pop(rng.randrange(len(live)))
                description.remove(entry)
                reference.remove(entry)
                removed.append(entry)
            elif action < (0.7 if grow else 0.75):
                if removed and rng.random() < 0.1:
                    entry = removed.pop(rng.randrange(len(removed)))
                elif live and rng.random() < 0.05:
                    # Re-adding a live entry keeps its position.
                    entry = rng.choice(live)
                    live.remove(entry)
                else:
                    template_id = rng.choice(("sphere", "rect"))
                    make = self.sphere if template_id == "sphere" else self.rect
                    entry = self.entry(next_id, template_id, make(rng))
                    next_id += 1
                description.add(entry)
                reference.add(entry)
                live.append(entry)
            else:
                if live and rng.random() < 0.5:
                    near = rng.choice(live)
                    delta = rng.choice((0.0, EPSILON / 2, 2 * EPSILON))
                    dims = near.region.dims
                    box = self.touching(near, delta)
                    region = (
                        box
                        if dims == 2
                        else HyperSphere(
                            tuple(lo + 0.05 for lo in box.lows), 0.05
                        )
                    )
                    check(near.template_id, region)
                else:
                    check("sphere", self.sphere(rng))
                    check("rect", self.rect(rng))
                check("unknown", self.rect(rng))
            for template_id, rows in used_rows.items():
                matrix = description._by_template.get(template_id)
                rows.append(0 if matrix is None else len(matrix.entries))
        assert probes > 300
        # Each template's matrix compacted at least once.
        for rows in used_rows.values():
            assert any(b < a for a, b in zip(rows, rows[1:]))
        for template_id in ("sphere", "rect"):
            assert len(description._by_template[template_id]) == sum(
                1 for entry in live if entry.template_id == template_id
            )

    def test_epsilon_touch_is_a_candidate_and_beyond_is_not(self):
        description = ArrayDescription()
        entry = self.entry(1, "rect", HyperRect((0.25, 0.25), (0.5, 0.5)))
        description.add(entry)
        for delta, expected in (
            (0.0, [entry]),
            (EPSILON / 2, [entry]),
            (2 * EPSILON, []),
        ):
            probe = self.touching(entry, delta)
            assert description.candidates("rect", probe)[0] == expected

    def test_zero_radius_sphere_finds_itself(self):
        description = ArrayDescription()
        point = HyperSphere((0.5, 0.5, 0.5), 0.0)
        entry = self.entry(1, "sphere", point)
        description.add(entry)
        assert description.candidates("sphere", point)[0] == [entry]
