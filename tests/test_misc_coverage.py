"""Coverage for smaller corners: replacer, results table, hierarchy
writeback edge cases, cacti organization geometry."""

import random

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.lru import make_policy
from repro.common.rng import DeterministicRNG
from repro.nurapid.config import DistanceReplacementKind
from repro.nurapid.replacement import DistanceReplacer
from repro.sim.results import format_fraction_table
from repro.tech.cacti import MiniCacti

KB = 1024


class TestDistanceReplacer:
    def _replacer(self, kind=DistanceReplacementKind.LRU):
        # Two d-groups of 128 frames, each split into two regions.
        return DistanceReplacer([128, 128], 2, kind, DeterministicRNG(1, "dr"))

    def test_tracks_per_dgroup_and_region(self):
        r = self._replacer()
        r.insert(0, 0, 5)
        r.insert(0, 1, 6)
        r.insert(1, 0, 7)
        assert r.tracked(0, 0) == 1
        assert r.tracked(0, 1) == 1
        assert r.tracked(1, 0) == 1
        assert r.tracked(1, 1) == 0

    def test_lru_victim_order(self):
        r = self._replacer()
        r.insert(0, 0, 10)
        r.insert(0, 0, 11)
        r.touch(0, 0, 10)
        assert r.select_victim(0, 0) == 11

    def test_selection_does_not_remove(self):
        r = self._replacer()
        r.insert(0, 0, 10)
        assert r.select_victim(0, 0) == 10
        assert r.tracked(0, 0) == 1

    def test_random_kind_selects_members(self):
        r = self._replacer(DistanceReplacementKind.RANDOM)
        for f in range(6):
            r.insert(0, 0, f)
        assert r.select_victim(0, 0) in range(6)

    def test_bounds_checked(self):
        r = self._replacer()
        with pytest.raises(ConfigurationError):
            r.insert(5, 0, 1)
        with pytest.raises(ConfigurationError):
            r.insert(0, 5, 1)
        with pytest.raises(SimulationError):
            r.remove(0, 0, 99)


    @pytest.mark.parametrize("kind", list(DistanceReplacementKind))
    def test_matches_the_generic_reference_policies(self, kind):
        """The flat frame-indexed selectors choose exactly what the
        generic :mod:`repro.common.lru` policies choose, op for op."""
        seed = DeterministicRNG(5, "ref")
        flat = DistanceReplacer([64, 64], 2, kind, seed)
        reference = [
            [make_policy(kind.value, seed.spawn(f"dg{g}/r{r}")) for r in range(2)]
            for g in range(2)
        ]
        driver = random.Random(kind.value)
        for _ in range(4000):
            g, r = driver.randrange(2), driver.randrange(2)
            policy = reference[g][r]
            frame = r * 32 + driver.randrange(32)
            op = driver.random()
            if frame not in policy:
                flat.insert(g, r, frame)
                policy.insert(frame)
            elif op < 0.3:
                flat.touch(g, r, frame)
                policy.touch(frame)
            elif op < 0.5:
                flat.remove(g, r, frame)
                policy.remove(frame)
            else:
                # The cache's demotion step: pick, then re-track as MRU.
                victim = flat.select_victim(g, r)
                assert victim == policy.victim()
                flat.remove(g, r, victim)
                flat.insert(g, r, victim)
                policy.remove(victim)
                policy.insert(victim)
            assert flat.tracked(g, r) == len(policy)

    def test_snapshot_restores_in_place(self):
        r = self._replacer(DistanceReplacementKind.RANDOM)
        for f in range(10):
            r.insert(0, 0, f)
        saved = r.snapshot()
        touch = r.touchers()[0][0]
        r.remove(0, 0, 3)
        r.restore(saved)
        assert r.tracked(0, 0) == 10
        touch(3)  # bound selectors survive a restore
        assert r.snapshot() == saved


class TestResultsFormatting:
    def test_format_fraction_table(self):
        rows = {"art": {0: 0.8, 1: 0.1}, "mcf": {0: 0.4}}
        miss = {"art": 0.1, "mcf": 0.5}
        text = format_fraction_table(rows, [0, 1], miss)
        assert "benchmark" in text
        assert "art" in text and "mcf" in text
        assert "80.0%" in text
        assert "50.0%" in text


class TestHierarchyEdgeCases:
    def _system(self):
        from repro.caches.hierarchy import CacheHierarchy, UniformLowerLevel
        from repro.caches.memory import MainMemory
        from repro.caches.simple import SetAssociativeCache
        from repro.floorplan.dgroups import build_uniform_cache_spec

        l1 = SetAssociativeCache(
            build_uniform_cache_spec("L1", 2 * KB, 32, 2, latency_cycles=3)
        )
        l2 = SetAssociativeCache(
            build_uniform_cache_spec("L2", 8 * KB, 128, 2, latency_cycles=11)
        )
        memory = MainMemory()
        return (
            CacheHierarchy(l1d=l1, lower=[UniformLowerLevel(l2)], memory=memory),
            l1,
            l2,
            memory,
        )

    def test_l1_writeback_missing_in_l2_goes_to_memory(self):
        from repro.common.types import Access, AccessType

        hierarchy, l1, l2, memory = self._system()
        base = 0x10000
        hierarchy.access(Access(base, AccessType.WRITE))
        # Evict the dirty line from the L2 so the L1 writeback misses.
        l2.invalidate(base)
        writes_before = memory.writes
        hierarchy._writeback_from_l1(base, now=100.0)
        assert memory.writes == writes_before + 1
        assert hierarchy.stats.get("l1_writebacks_to_memory") == 1

    def test_writeback_hit_stays_in_l2(self):
        from repro.common.types import Access, AccessType

        hierarchy, l1, l2, memory = self._system()
        base = 0x10000
        hierarchy.access(Access(base, AccessType.WRITE))
        writes_before = memory.writes
        hierarchy._writeback_from_l1(base, now=100.0)
        assert memory.writes == writes_before


class TestCactiOrganizations:
    def test_grid_covers_count(self):
        mc = MiniCacti()
        model = mc.data_array(1024 * KB, 128)
        org = model.organization
        assert org.grid_width * org.grid_height >= org.count

    def test_routing_distance_positive(self):
        mc = MiniCacti()
        org = mc.data_array(256 * KB, 128).organization
        assert org.routing_distance_mm > 0
        assert org.htree_levels >= 1

    def test_dimensions_scale_with_grid(self):
        mc = MiniCacti()
        small = mc.data_array(128 * KB, 128).organization
        large = mc.data_array(4096 * KB, 128).organization
        assert large.width_mm * large.height_mm > small.width_mm * small.height_mm

    def test_access_cycles_property(self):
        mc = MiniCacti()
        model = mc.data_array(256 * KB, 128)
        assert model.access_cycles == model.tech.ps_to_cycles(model.access_time_ps)
        assert model.read_energy_nj == pytest.approx(model.read_energy_pj / 1000.0)
