"""The miss-driven kernel's L1 pass against SetAssociativeCache itself.

:func:`repro.sim.vectorized.l1_pass` computes a whole stream's L1
hits, fills, victims and final state without a per-reference loop.
The oracle here is the cache model, driven reference by reference the
way :class:`~repro.caches.hierarchy.CacheHierarchy` drives it
(``access``, then ``fill`` on a miss), from empty, partly filled and
full starting states, over seeded streams with heavy set conflict.
"""

import random

import numpy as np
import pytest

from repro.caches.simple import SetAssociativeCache
from repro.floorplan.dgroups import build_uniform_cache_spec
from repro.sim.vectorized import l1_pass

BLOCK = 32


def make_cache(n_sets):
    spec = build_uniform_cache_spec(
        name="L1d",
        capacity_bytes=n_sets * 2 * BLOCK,
        block_bytes=BLOCK,
        associativity=2,
        latency_cycles=3,
        sequential_tag_data=False,
    )
    return SetAssociativeCache(spec)


def random_stream(rng, n, n_sets, hot_sets, blocks_per_set, write_rate):
    """References over a few hot sets, each with a small block pool."""
    sets = rng.sample(range(n_sets), hot_sets)
    addresses, writes = [], []
    for _ in range(n):
        index = rng.choice(sets)
        tag = rng.randrange(blocks_per_set)
        addresses.append((tag * n_sets + index) * BLOCK + rng.randrange(BLOCK))
        writes.append(rng.random() < write_rate)
    return addresses, writes


def oracle(cache, addresses, writes):
    """Per-reference hits and per-miss (frame, victim, dirty) events."""
    hits, events = [], []
    for address, is_write in zip(addresses, writes):
        hit = cache.access(address, is_write=is_write).hit
        hits.append(hit)
        if hit:
            continue
        victim = cache.fill(address, dirty=is_write)
        baddr = address & ~(BLOCK - 1)
        frame = cache._tags.index(baddr)
        if victim is None:
            events.append((frame, -1, False))
        else:
            events.append((frame, victim.block_addr, victim.dirty))
    return hits, events


def check(cache, addresses, writes):
    n_sets = cache.n_sets
    start = (list(cache._tags), bytearray(cache._dirty), list(cache._stamps), cache._clock)
    addr = np.asarray(addresses, dtype=np.int64)
    frames = ((addr // BLOCK) & (n_sets - 1)) * 2
    blocks = addr & ~np.int64(BLOCK - 1)
    got = l1_pass(frames, blocks, np.asarray(writes, dtype=bool), *start)
    hits, events = oracle(cache, addresses, writes)

    expected_miss = [i for i, h in enumerate(hits) if not h]
    assert got.miss_pos.tolist() == expected_miss
    assert list(
        zip(
            got.fill_frame.tolist(),
            got.victim.tolist(),
            got.victim_dirty.tolist(),
        )
    ) == events
    assert got.tags.tolist() == cache._tags
    assert got.dirty.astype(np.uint8).tobytes() == bytes(cache._dirty)
    assert got.stamps.tolist() == cache._stamps
    assert got.clock == cache._clock


def warm(cache, rng, n, write_rate=0.5):
    """Drive some traffic through the cache so every set is in use."""
    addresses, writes = random_stream(rng, n, cache.n_sets, cache.n_sets, 4, write_rate)
    oracle(cache, addresses, writes)


CASES = range(12)


@pytest.mark.parametrize("case", CASES)
def test_empty_cache(case):
    rng = random.Random(1000 + case)
    cache = make_cache(16)
    addresses, writes = random_stream(
        rng, rng.choice([1, 5, 300, 2000]), 16, rng.choice([1, 3, 16]),
        rng.choice([2, 3, 5]), rng.random(),
    )
    check(cache, addresses, writes)


@pytest.mark.parametrize("case", CASES)
def test_full_sets_with_dirty_lines(case):
    rng = random.Random(2000 + case)
    cache = make_cache(8)
    warm(cache, rng, 400)
    assert all(t >= 0 for t in cache._tags)
    assert any(cache._dirty)
    addresses, writes = random_stream(
        rng, 1500, 8, rng.choice([1, 2, 8]), rng.choice([2, 3, 6]), rng.random()
    )
    check(cache, addresses, writes)


@pytest.mark.parametrize("case", CASES)
def test_partly_filled_sets(case):
    rng = random.Random(3000 + case)
    cache = make_cache(8)
    warm(cache, rng, 200)
    # Drop residents at random, always including a lone way-1 resident
    # (a set whose way 0 was invalidated).
    lone = rng.randrange(8)
    cache.invalidate(cache._tags[2 * lone])
    for frame in range(16):
        if frame // 2 != lone and cache._tags[frame] >= 0 and rng.random() < 0.4:
            cache.invalidate(cache._tags[frame])
    assert cache._tags[2 * lone] < 0 and cache._tags[2 * lone + 1] >= 0
    addresses, writes = random_stream(
        rng, 800, 8, rng.choice([2, 8]), rng.choice([2, 3, 4]), rng.random()
    )
    check(cache, addresses, writes)


def test_empty_stream_keeps_state():
    rng = random.Random(7)
    cache = make_cache(8)
    warm(cache, rng, 300)
    check(cache, [], [])


def test_prewarmed_cache():
    rng = random.Random(8)
    cache = make_cache(64)
    cache.prewarm()
    addresses, writes = random_stream(rng, 3000, 64, 64, 5, 0.3)
    check(cache, addresses, writes)


def test_wide_sort_key_path():
    """More than 32768 sets: set keys no longer fit the uint16 sort."""
    rng = random.Random(9)
    n_sets = 1 << 16
    cache = make_cache(n_sets)
    addresses, writes = random_stream(rng, 4000, n_sets, 40, 3, 0.4)
    # Spread a few references over the high sets too.
    addresses += [(n_sets - 1 - i) * BLOCK for i in range(50)]
    writes += [True] * 50
    check(cache, addresses, writes)


def test_tied_stamps_evict_way_0_first():
    rng = random.Random(10)
    cache = make_cache(8)
    warm(cache, rng, 300)
    cache._stamps[:] = [5] * 16
    addresses, writes = random_stream(rng, 500, 8, 8, 3, 0.5)
    check(cache, addresses, writes)
