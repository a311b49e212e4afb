"""Prewarm: the steady-state initial condition for all cache models."""

import copy
import json
from dataclasses import replace

import pytest

from repro.cmp.config import CmpConfig, CompressionConfig
from repro.common import prewarm_cache
from repro.common.errors import SimulationError, UncorrectableDataError
from repro.caches.setassoc_nonuniform import SetAssociativePlacementCache
from repro.caches.simple import SetAssociativeCache
from repro.faults import FaultPlan, HardFaultEvent
from repro.floorplan.dgroups import (
    build_dnuca_geometry,
    build_nurapid_geometry,
    build_uniform_cache_spec,
)
from repro.nuca.cache import DNUCACache
from repro.nuca.config import DNUCAConfig
from repro.nurapid.cache import NuRAPIDCache
from repro.nurapid.config import NuRAPIDConfig
from repro.nuca.config import SearchPolicy
from repro.sim.config import (
    base_config,
    dnuca_config,
    nurapid_config,
    sa_nuca_config,
    snuca_config,
)
from repro.sim.driver import make_system, run_benchmark
from repro.sim.results import run_result_to_dict
from repro.telemetry import reset_runtime_registry, runtime_counters
from repro.workloads.spec2k import get_benchmark
from repro.workloads.tracegen import generate_trace

KB = 1024


class TestNuRAPIDPrewarm:
    def _cache(self):
        return NuRAPIDCache(
            NuRAPIDConfig(
                capacity_bytes=64 * KB, block_bytes=64, associativity=4,
                n_dgroups=4, name="pw",
            )
        )

    def test_fills_every_frame(self):
        c = self._cache()
        c.prewarm()
        assert c.resident_blocks() == c.config.n_blocks
        for occupied, total in c.dgroup_occupancy():
            assert occupied == total
        c.check_invariants()

    def test_dummies_spread_over_dgroups(self):
        c = self._cache()
        c.prewarm()
        # Every set has one dummy way in each d-group (assoc 4 / 4 groups).
        for way in range(4):
            addr = c.PREWARM_BASE + (way * c.config.n_sets + 0) * 64
            assert c.dgroup_of(addr) == way

    def test_fill_after_prewarm_triggers_demotion_chain(self):
        c = self._cache()
        c.prewarm()
        # First fill evicts the set's LRU dummy (the d-group-0 one),
        # whose freed frame absorbs the new block directly.
        c.fill(0x1000)
        assert c.dgroup_of(0x1000) == 0
        assert c.stats.get("evictions") == 1
        assert c.stats.get("demotions") == 0
        # Second fill to the same set evicts the d-group-1 dummy, so
        # placing in the (full) d-group 0 must run a demotion chain.
        sets = c.config.n_sets
        c.fill(0x1000 + sets * 64)
        assert c.stats.get("evictions") == 2
        assert c.stats.get("demotions") == 1
        c.check_invariants()

    def test_dummy_evictions_are_clean(self):
        c = self._cache()
        c.prewarm()
        assert c.fill(0x1000) == 0  # no writeback from the dummy

    def test_prewarm_twice_rejected(self):
        c = self._cache()
        c.prewarm()
        with pytest.raises(SimulationError):
            c.prewarm()

    def test_prewarm_requires_divisible_assoc(self):
        c = NuRAPIDCache(
            NuRAPIDConfig(
                capacity_bytes=64 * KB, block_bytes=64, associativity=4,
                n_dgroups=8, name="pw8",
            )
        )
        with pytest.raises(SimulationError):
            c.prewarm()


class TestDNUCAPrewarm:
    def _cache(self):
        return DNUCACache(
            DNUCAConfig(capacity_bytes=512 * KB, bank_bytes=64 * KB, name="pwn")
        )

    def test_fills_every_way(self):
        c = self._cache()
        c.prewarm()
        assert c.resident_blocks() == 512 * KB // 128
        c.check_invariants()

    def test_fill_after_prewarm_evicts_tail(self):
        c = self._cache()
        c.prewarm()
        c.fill(0x10000)
        assert c.stats.get("evictions") == 1
        assert c.level_of(0x10000) == c.config.chain_length - 1

    def test_prewarm_twice_rejected(self):
        c = self._cache()
        c.prewarm()
        with pytest.raises(SimulationError):
            c.prewarm()


class TestUniformPrewarm:
    def test_fills_all_ways(self):
        spec = build_uniform_cache_spec("u", 8 * KB, 64, 2, latency_cycles=5)
        c = SetAssociativeCache(spec)
        c.prewarm()
        assert c.occupancy() == 8 * KB // 64

    def test_prewarm_is_idempotent(self):
        spec = build_uniform_cache_spec("u", 8 * KB, 64, 2, latency_cycles=5)
        c = SetAssociativeCache(spec)
        c.prewarm()
        c.prewarm()  # skips resident dummies
        assert c.occupancy() == 8 * KB // 64


class TestSAPlacementPrewarm:
    def test_fills_all_ways(self):
        c = SetAssociativePlacementCache(
            capacity_bytes=64 * KB, block_bytes=64, associativity=4, n_dgroups=4,
            geometry=build_nurapid_geometry(
                n_dgroups=4, capacity_bytes=64 * KB, block_bytes=64, associativity=4
            ),
            name="pwsa",
        )
        c.prewarm()
        c.check_invariants()
        # Every way of set 0 is occupied.
        assert all(addr >= 0 for addr in c._addrs[:4])

    def test_prewarm_tops_up_a_partly_filled_cache(self):
        c = SetAssociativePlacementCache(
            capacity_bytes=64 * KB, block_bytes=64, associativity=4, n_dgroups=4,
            name="pwsa2",
        )
        c.fill(0x1000)
        c.prewarm()
        c.check_invariants()
        assert c.contains(0x1000)
        assert len(c._where) == 64 * KB // 64


# --- prototype registry parity (repro.common.prewarm_cache) ---

#: Every cache whose prewarm goes through the prototype registry.
REGISTRY_CONFIGS = [
    nurapid_config(),
    replace(nurapid_config(), cmp=CmpConfig(cores=1, compression=CompressionConfig())),
    snuca_config(),
    dnuca_config(),
    dnuca_config(policy=SearchPolicy.SS_ENERGY),
    sa_nuca_config(),
    base_config(),
]
REGISTRY_IDS = [
    "nurapid", "nurapid-compressed", "s-nuca", "dnuca", "dnuca-ss-energy",
    "sa-nuca", "base",
]


def _plain(value):
    """Ordered, comparable form of cache state (dict order included)."""
    if isinstance(value, dict):
        return [(k, _plain(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, bytearray):
        return bytes(value)
    if hasattr(value, "state_copy"):
        return _plain(value.state_copy())
    return value


#: Containers prewarm fills, across every registry user.  NuRAPID's
#: flat tag array is ``_addrs``/``_entries``/``_stamps``/``_clock`` plus
#: the cache-wide ``_where``; D-NUCA's and SA-NUCA's ``_where`` is
#: cache-wide too.
_STATE_ATTRS = (
    "_tags", "_stamps", "_dirty", "_clock", "_sets", "_lru", "_entries",
    "_addrs", "_touch", "_where",
)


def _state(system):
    """Every prewarm-filled container of every lower level, by name."""
    out = []
    for level in system.lower:
        cache = getattr(level, "cache", level)
        fields = {a: _plain(getattr(cache, a)) for a in _STATE_ATTRS if hasattr(cache, a)}
        if hasattr(cache, "_stores"):
            fields["_stores"] = [
                (list(s._resident), _plain(s._free)) for s in cache._stores
            ]
            fields["_replacer"] = _plain(cache._replacer.snapshot())
        assert fields, f"no prewarm state found on {type(cache).__name__}"
        out.append((type(cache).__name__, fields))
    return out


def _scribble(system):
    """Fill, dirty and promote enough blocks to touch every prewarmed set."""
    for level in system.lower:
        now = 0.0
        for i in range(4096):
            address = i * 4096 + (i % 7) * 128
            result = level.access(address, True, now)
            if not result.hit:
                level.fill(address, now, True)
            level.access(address, False, now + 1)
            now += 50.0


class TestPrototypeRegistryParity:
    @pytest.mark.parametrize("config", REGISTRY_CONFIGS, ids=REGISTRY_IDS)
    def test_restore_matches_full_fill(self, config, monkeypatch):
        prewarm_cache.clear()
        monkeypatch.setenv("REPRO_PREWARM_CACHE", "0")
        full = make_system(config)
        assert not prewarm_cache._snapshots  # the registry stayed off
        monkeypatch.setenv("REPRO_PREWARM_CACHE", "1")
        make_system(config)  # stores the prototype
        assert prewarm_cache._snapshots
        restored = make_system(config)
        assert _state(restored) == _state(full)

        # A restored cache must not alias the prototype: traffic on it
        # leaves the next restore pristine.
        _scribble(restored)
        assert _state(restored) != _state(full)
        again = make_system(config)
        assert _state(again) == _state(full)

    @pytest.mark.parametrize("config", REGISTRY_CONFIGS, ids=REGISTRY_IDS)
    def test_replay_bytes_identical(self, config, monkeypatch):
        trace = generate_trace(get_benchmark("mcf"), 4000, seed=3)

        def run():
            result = run_benchmark(
                config, "mcf", n_references=4000, seed=3,
                warmup_fraction=0.25, trace=trace,
            )
            return json.dumps(run_result_to_dict(result))

        prewarm_cache.clear()
        monkeypatch.setenv("REPRO_PREWARM_CACHE", "0")
        off = run()
        monkeypatch.setenv("REPRO_PREWARM_CACHE", "1")
        first = run()
        restored = run()
        assert off == first == restored
        prewarm_cache.clear()

    def test_dnuca_policy_variants_share_one_prototype(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREWARM_CACHE", "1")
        prewarm_cache.clear()
        for policy in SearchPolicy:
            for tail in (True, False):
                make_system(dnuca_config(policy=policy, tail_insertion=tail, seed=5))
        assert len(prewarm_cache._snapshots) == 1
        prewarm_cache.clear()


class TestPrewarmCounters:
    def test_builds_and_restores_are_counted(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREWARM_CACHE", "1")
        prewarm_cache.clear()
        reset_runtime_registry()
        make_system(nurapid_config())
        cold = runtime_counters()
        assert cold.get("prewarm.builds") == 1
        assert "prewarm.restores" not in cold
        make_system(nurapid_config())
        make_system(nurapid_config(seed=4))  # another prototype key
        warm = runtime_counters()
        assert warm["prewarm.builds"] == 2
        assert warm["prewarm.restores"] == 1
        prewarm_cache.clear()

    def test_disabled_registry_counts_every_build(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREWARM_CACHE", "0")
        reset_runtime_registry()
        for _ in range(2):
            make_system(dnuca_config())
        counters = runtime_counters()
        assert counters["prewarm.builds"] == 2
        assert "prewarm.restores" not in counters


def _shared_specs(system):
    """Every memoized spec or geometry a system's caches hold."""
    out = [system.l1d.spec, system.l1i.spec]
    for level in system.lower:
        cache = getattr(level, "cache", level)
        out.append(getattr(cache, "geometry", None) or cache.spec)
    return out


class TestMemoizedBuilders:
    def test_same_arguments_share_one_object(self):
        assert build_nurapid_geometry(n_dgroups=4) is build_nurapid_geometry(n_dgroups=4)
        assert build_dnuca_geometry() is build_dnuca_geometry()
        assert build_uniform_cache_spec("u", 8 * KB, 64, 2) is build_uniform_cache_spec(
            "u", 8 * KB, 64, 2
        )
        first, second = make_system(nurapid_config()), make_system(dnuca_config())
        assert first.l1d.spec is second.l1d.spec

    @pytest.mark.parametrize(
        "config",
        [
            nurapid_config(
                faults=FaultPlan(
                    transient_per_access=0.02,
                    max_upset_bits=48,
                    interleave_subarrays=1,
                    hard_faults=(
                        HardFaultEvent(at_access=200, dgroup=0, subarray=1),
                        HardFaultEvent(at_access=400, dgroup=1, subarray=0),
                    ),
                    data_subarrays_per_dgroup=4,
                    spare_subarrays_per_dgroup=0,
                    seed=2,
                )
            ),
            REGISTRY_CONFIGS[1],
            dnuca_config(policy=SearchPolicy.SS_ENERGY),
            sa_nuca_config(),
            snuca_config(),
            base_config(),
        ],
        ids=["nurapid-faults", "nurapid-compressed", "dnuca", "sa-nuca", "s-nuca", "base"],
    )
    def test_runs_never_mutate_a_shared_spec(self, config):
        shared = _shared_specs(make_system(config))
        before = copy.deepcopy(shared)
        try:
            run_benchmark(config, "mcf", n_references=6000, seed=2)
        except UncorrectableDataError:
            pass  # a dirty-line DUE ends the faulty run early; fine here
        after = _shared_specs(make_system(config))
        assert all(a is b for a, b in zip(after, shared))
        assert shared == before
