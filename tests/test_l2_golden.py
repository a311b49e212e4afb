"""Golden digests of the L2 models' per-access behaviour.

Engine-parity tests cannot see a change inside an L2 model: every
engine calls the same ``access``/``fill``.  This file pins each model
variant against fixed sha256 digests instead.  One seeded stream drives
a prewarmed model through the lower-level protocol, and the digest
covers:

* every ``access`` result (hit, latency, level, d-group, energy) and
  every ``fill`` return value;
* every telemetry callback and event, in order;
* periodic lookups (``contains`` / ``dgroup_of`` / ``lookup`` /
  ``level_of``);
* the final counters, energy counts, d-group hit distribution and port
  timelines, in their dict insertion order.

A digest mismatch means some variant's observable behaviour moved.
The digests were produced by the per-set-dict models that preceded the
flat L2 state and must hold unchanged across refactors of that state.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from repro.caches.setassoc_nonuniform import SetAssociativePlacementCache
from repro.cmp.config import CompressionConfig
from repro.common import prewarm_cache
from repro.common.errors import UncorrectableDataError
from repro.faults import FaultPlan, HardFaultEvent
from repro.nuca.cache import DNUCACache
from repro.nuca.config import DNUCAConfig, SearchPolicy
from repro.nurapid.cache import NuRAPIDCache
from repro.nurapid.compression import CompressedNuRAPIDCache
from repro.nurapid.config import (
    DistanceReplacementKind,
    NuRAPIDConfig,
    PromotionPolicy,
)
from repro.sim.config import base_config, dnuca_config, nurapid_config, snuca_config
from repro.sim.config import sa_nuca_config
from repro.sim.driver import make_system

KB = 1024

#: 128 KB, 8-way, 4 d-groups, 64 B blocks: 256 sets, 512 frames/group.
SMALL_NURAPID = NuRAPIDConfig(
    capacity_bytes=128 * KB,
    block_bytes=64,
    associativity=8,
    n_dgroups=4,
    seed=11,
    name="gold",
)
#: 512 KB, 16-way, 8 banks of 64 KB per chain: 256 sets.
SMALL_DNUCA = DNUCAConfig(
    capacity_bytes=512 * KB,
    block_bytes=128,
    associativity=16,
    bank_bytes=64 * KB,
    chain_length=8,
    seed=11,
    name="gold-nuca",
)


class _Recorder:
    """Telemetry stand-in: records every callback in order."""

    def __init__(self, log):
        self.log = log

    def on_access(self, baddr, hit, group, latency):
        self.log.append(("a", baddr, hit, group, latency))

    def event(self, kind, **fields):
        self.log.append(("e", kind, sorted(fields.items())))


def _stream(seed, n, footprint_blocks, block_bytes):
    """Seeded references: a hot set revisited among uniform traffic."""
    rng = random.Random(seed)
    hot = [rng.randrange(footprint_blocks) for _ in range(min(footprint_blocks // 16, 320))]
    now = 0.0
    for _ in range(n):
        if rng.random() < 0.45:
            block = rng.choice(hot)
        else:
            block = rng.randrange(footprint_blocks)
        now += rng.choice((1.0, 3.0, 7.0, 40.0))
        yield block * block_bytes + rng.randrange(block_bytes), rng.random() < 0.3, now


def _probe(model, address):
    out = [model.contains(address)]
    for name in ("dgroup_of", "level_of"):
        if hasattr(model, name):
            out.append(getattr(model, name)(address))
    if hasattr(model, "lookup"):
        out.append(repr(model.lookup(address)))
    return out


def _final(model):
    out = [
        list(model.energy._count.items()),
        repr(model.energy.total_nj()),
    ]
    if hasattr(model, "stats"):
        out.append(list(model.stats.as_dict().items()))
        out.append(list(model.dgroup_hits.counts.items()))
    else:  # a uniform cache keeps plain int counters
        out.append((model.hits, model.misses, model.writebacks))
    ports = getattr(model, "_ports", None) or [getattr(model, "port", None)]
    out.append(
        [
            (p.busy_until, p.total_busy, p.total_wait, p.grants)
            for p in ports
            if p is not None
        ]
    )
    for name in ("dgroup_occupancy", "retired_frames", "resident_blocks", "occupancy"):
        if hasattr(model, name):
            out.append(getattr(model, name)())
    return out


def digest(level, n=6000, footprint=5000, seed=5):
    """sha256 over everything observable while driving ``level``."""
    model = getattr(level, "cache", level)
    log = []
    model.telemetry = _Recorder(log)
    bb = getattr(model, "block_bytes", None) or model.spec.block_bytes
    for i, (address, is_write, now) in enumerate(_stream(seed, n, footprint, bb)):
        try:
            result = level.access(address, is_write, now)
        except UncorrectableDataError as exc:  # a dirty line's DUE
            log.append(str(exc))
            continue
        log.append(
            (result.hit, result.latency, result.level, result.dgroup, result.energy_nj)
        )
        if not result.hit:
            log.append(level.fill(address, now + result.latency, is_write))
        if i % 97 == 0:
            log.append(_probe(model, address))
        if i == n // 2:
            model.reset_stats()
    if hasattr(model, "check_invariants"):
        model.check_invariants()
    log.append(_final(model))
    return hashlib.sha256(repr(log).encode()).hexdigest()


def _nurapid(**overrides):
    cache = NuRAPIDCache(replace(SMALL_NURAPID, **overrides))
    cache.prewarm()
    return cache


def _faulty_nurapid():
    cache = NuRAPIDCache(SMALL_NURAPID)
    cache.attach_faults(
        FaultPlan(
            transient_per_access=0.02,
            max_upset_bits=48,
            interleave_subarrays=1,
            hard_faults=(
                HardFaultEvent(at_access=500, dgroup=0, subarray=1),
                HardFaultEvent(at_access=1500, dgroup=2, subarray=3),
                HardFaultEvent(at_access=2500, dgroup=0, subarray=2),
            ),
            data_subarrays_per_dgroup=8,
            spare_subarrays_per_dgroup=1,
            seed=3,
        )
    )
    cache.prewarm()
    return cache


def _compressed():
    cache = CompressedNuRAPIDCache(
        SMALL_NURAPID,
        CompressionConfig(ratio=2, compressed_dgroups=1, compressible_share=0.6),
    )
    cache.prewarm()
    return cache


def _dnuca(**overrides):
    cache = DNUCACache(replace(SMALL_DNUCA, **overrides))
    cache.prewarm()
    return cache


def _sa_nuca(promote=True):
    cache = SetAssociativePlacementCache(
        capacity_bytes=128 * KB,
        block_bytes=64,
        associativity=8,
        n_dgroups=4,
        promote=promote,
        name="gold-sa",
    )
    cache.prewarm()
    return cache


def _system_l2(config):
    """The prewarmed L2 of a full-size system (prototype path)."""
    return make_system(config).lower[0]


BUILDERS = {
    "nurapid-random": lambda: _nurapid(),
    "nurapid-lru": lambda: _nurapid(
        distance_replacement=DistanceReplacementKind.LRU
    ),
    "nurapid-approx-lru": lambda: _nurapid(
        distance_replacement=DistanceReplacementKind.APPROX_LRU
    ),
    "nurapid-fastest": lambda: _nurapid(promotion=PromotionPolicy.FASTEST),
    "nurapid-restricted": lambda: _nurapid(restricted_frames=128),
    "nurapid-restricted-lru": lambda: _nurapid(
        restricted_frames=128, distance_replacement=DistanceReplacementKind.LRU
    ),
    "nurapid-hysteresis": lambda: _nurapid(promotion_hysteresis=3),
    "nurapid-demotion-only": lambda: _nurapid(
        promotion=PromotionPolicy.DEMOTION_ONLY
    ),
    "nurapid-ideal": lambda: _nurapid(ideal_uniform=True),
    "nurapid-compressed": _compressed,
    "nurapid-faults": _faulty_nurapid,
    "dnuca-ss-performance-tail": lambda: _dnuca(policy=SearchPolicy.SS_PERFORMANCE),
    "dnuca-ss-performance-head": lambda: _dnuca(
        policy=SearchPolicy.SS_PERFORMANCE, tail_insertion=False
    ),
    "dnuca-ss-energy-tail": lambda: _dnuca(policy=SearchPolicy.SS_ENERGY),
    "dnuca-ss-energy-head": lambda: _dnuca(
        policy=SearchPolicy.SS_ENERGY, tail_insertion=False
    ),
    "dnuca-incremental-tail": lambda: _dnuca(policy=SearchPolicy.INCREMENTAL),
    "dnuca-incremental-head": lambda: _dnuca(
        policy=SearchPolicy.INCREMENTAL, tail_insertion=False
    ),
    "dnuca-no-promotion": lambda: _dnuca(promote_on_hit=False),
    "sa-nuca": lambda: _sa_nuca(),
    "sa-nuca-no-promotion": lambda: _sa_nuca(promote=False),
    "full-nurapid": lambda: _system_l2(nurapid_config()),
    "full-dnuca": lambda: _system_l2(dnuca_config()),
    "full-sa-nuca": lambda: _system_l2(sa_nuca_config()),
    "full-s-nuca": lambda: _system_l2(snuca_config()),
    "full-base": lambda: _system_l2(base_config()),
}

#: Digests of the streams above (see the module docstring).
GOLDEN = {
    "dnuca-incremental-head": (
        "1f010ff982ddcecfa0ac08c512e940f77c4725e1e6fec634b65d52e7016f8c99"
    ),
    "dnuca-incremental-tail": (
        "0dd103d62093408ebb205ec9989916c23a4a6b32b68487519352d6baa97c5f80"
    ),
    "dnuca-no-promotion": (
        "171bdad28094761161998f72f7dd4f166d012495e970f87ab7c6818b211c26b8"
    ),
    "dnuca-ss-energy-head": (
        "600cce5ef48707ec2e5d5332bb63032a08c20548de3051be10c70eaa05c93fe8"
    ),
    "dnuca-ss-energy-tail": (
        "466e5aa2bdd5362bc2c9567f4875a68c3f736478a229e2f0bbd5a17046d3e3ee"
    ),
    "dnuca-ss-performance-head": (
        "0b96465efd4efa798c2b473e77b051729e5cd329452ba59a3c36f3b24602f747"
    ),
    "dnuca-ss-performance-tail": (
        "023b53bab53d9dee2f7a7426eb38a5b17b7508af4c0bbb86119d7b1ba06bd85e"
    ),
    "full-base": (
        "f01888a0727ace11a9eadc9b36787eca6be3a6233f3bf0d08e05c389a405735f"
    ),
    "full-dnuca": (
        "02bcdb071d9e54900a5940f391a6e0ce1ddc3015588444c72e0befbd633f4a38"
    ),
    "full-nurapid": (
        "8d598f99067483cd8c6f3325c5476088efb2c76b41765421e459b2f0efca6f7e"
    ),
    "full-s-nuca": (
        "f98ed9924796a1b5382560ec069c9773e05f57d0c95d08d6a5eb1e8f8509627a"
    ),
    "full-sa-nuca": (
        "9ac2159c1c2c732a9706fae87a5d773cb4459974c0cf08500c509b78b2947767"
    ),
    "nurapid-approx-lru": (
        "df13f28a028569d21f486b415e8435244839e2f7f15c2981cf86d56283a6e4e2"
    ),
    "nurapid-compressed": (
        "b60d9629b128618209a93e541492798323e646847271157ba58b5ff801bead7f"
    ),
    "nurapid-demotion-only": (
        "6b327f09252fa38c5114df932826dfe583ccf7d661e2086d9a76ca4c2c261262"
    ),
    "nurapid-fastest": (
        "837c1dfab9c3b3725ded55bc24ec780a972b9c84a912a2dbe2b43c75973341d6"
    ),
    "nurapid-faults": (
        "c9fff7643063610bddc41dc8b9b227cf32f2a292536ca04a1457aef3f8ab26b7"
    ),
    "nurapid-hysteresis": (
        "8abfef6cfbfdca16b9c77d28b37b9fcd411fabe63554db1f64af6aa2c849085c"
    ),
    "nurapid-ideal": (
        "d1474334ba82e9e97a9adf97403c1e3659cf71363c9a36bfcea3e62869fc0981"
    ),
    "nurapid-lru": (
        "fa3c09ade515560b90693f47d25a43660e5ab8561cbc8328b91f67513551d79b"
    ),
    "nurapid-random": (
        "33ccb1c37b5609ccc6852313851f7470777f6de0e0ac4afdd401d906fee1b2a4"
    ),
    "nurapid-restricted": (
        "acc35d3c54ec295ac4318303677d97579395dc5ef3a9dbcb10a03165f7469c5e"
    ),
    "nurapid-restricted-lru": (
        "ec401c057ee649b464d540ffdfb036894c7b2432eb640a5e8ebf04be71ffbd61"
    ),
    "sa-nuca": (
        "9107d26434000a6ff16fad6049d6fe35a81d021ba802ac395adf1588b54bee03"
    ),
    "sa-nuca-no-promotion": (
        "b915d8d164301d3618fcb9dce05897390d32976f2e2ea7efa1a3e7dfbc2c1d6d"
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_l2_model_matches_golden_digest(name):
    level = BUILDERS[name]()
    footprint = 5000
    if name.startswith("full-"):
        # Full-size caches: a footprint past the 8 MB capacity so the
        # stream still evicts, demotes and promotes.
        footprint = 90000
    assert digest(level, footprint=footprint) == GOLDEN[name]


def test_prototype_restore_matches_golden_digest():
    """A second full-size build restores the shared prototype; its
    stream must digest exactly like the first build's."""
    prewarm_cache.clear()
    first = digest(_system_l2(nurapid_config()), footprint=90000)
    second = digest(_system_l2(nurapid_config()), footprint=90000)
    assert first == second == GOLDEN["full-nurapid"]
