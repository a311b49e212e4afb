"""Miss-driven replay kernel (``engine="vectorized"``).

The one fast exact kernel.  The legacy loop
(:func:`repro.sim.driver._replay`) pays Python call overhead five times
per reference — ``advance_instructions``, ``hierarchy.access_data``,
``l1.access``, ``AccessResult(...)``, ``note_memory_result`` — even
though most references are pipelined L1 hits.  This kernel runs Python
only on L1 misses, in two steps over a pre-decoded trace
(:meth:`Trace.decoded_batch`):

1. **L1 pass** (:func:`l1_pass`, numpy, once per call).  The 2-way LRU
   L1's hits, misses, victims and dirty writebacks depend only on the
   address stream, never on timing, so they are computed up front:
   the miss positions, each miss's fill frame, victim block and victim
   dirty bit, and the L1's final tags, dirty bits and stamps.
2. **Main loop over misses.**  Each stretch of hits up to and including
   the next miss is folded into ``cycle`` with the legacy float-op
   order (``np.add.accumulate`` for stretches of at least
   :data:`_FOLD_MIN` references, a plain ``for`` below that); then the
   miss runs the inlined miss path: lower-level ``access``/``fill``,
   the L1 writeback, the miss-latency histogram and the MSHR
   accounting.  ``branch_penalty_cycles`` is independent of misses, so
   it is one fold over the whole trace.

Telemetry runs stay in the kernel: with an L1 telemetry client
attached, it makes the calls ``SetAssociativeCache`` would make, in
the same order — ``on_access`` for each hit of a stretch, emitted
before the next miss's lower-level traffic, ``on_access`` for the miss
itself, and the ``eviction`` / ``writeback`` / ``placement`` events of
the fill — and each inlined MSHR allocation records the occupancy
histogram.

Bit-identity contract
---------------------

The kernel replays the *exact* float-operation sequence of the legacy
loop (no reassociation, no pre-multiplied constants, never the
builtin ``sum()``, which compensates float error on CPython 3.12),
drives lower levels through the same ``access``/``fill`` calls at the
same ``now`` values, and batches only integer counters, flushed in
``finally``.  A mid-replay
:class:`~repro.faults.models.UncorrectableDataError` from a lower level
leaves legacy-identical state: the L1 is set to the result of the pass
over the prefix already applied.  ``python -m repro.bench
--engine-parity`` and ``tests/test_fastpath.py`` hold it to
byte-identical summaries, telemetry reports and event traces.

When the kernel cannot take the system (an L1 fault injector, a
non-2-way L1, L1 constants that disagree with the core's, or an
exposure above 1, which breaks the inlined MSHR allocation's
precondition) :func:`replay` returns False untouched and the driver
runs its legacy loop instead; ``vectorized.fallbacks`` counts those.

Kernel statistics (references, hits folded, misses walked, wall-clock
of the whole call and of the L1 pass) land in the process-global
runtime registry (:mod:`repro.telemetry.runtime`) under
``vectorized.*`` — they describe execution strategy, not the simulated
machine, so they stay out of run payloads.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, NamedTuple, Optional

import numpy as np

from repro.caches.mshr import MSHREntry
from repro.telemetry.runtime import runtime_registry

#: Hit stretches at least this long fold with ``np.add.accumulate``;
#: shorter ones are cheaper as a Python loop.
_FOLD_MIN = 64


class L1Pass(NamedTuple):
    """What one reference stream does to a 2-way LRU L1.

    Per miss, in stream order: ``miss_pos`` (index into the stream),
    ``fill_frame``, ``victim`` (block address, -1 for a free frame)
    and ``victim_dirty``.  ``tags``/``dirty``/``stamps`` are the L1's
    flat state after the stream, ``clock`` its clock.
    """

    miss_pos: np.ndarray
    fill_frame: np.ndarray
    victim: np.ndarray
    victim_dirty: np.ndarray
    tags: np.ndarray
    dirty: np.ndarray
    stamps: np.ndarray
    clock: int


def l1_pass(frames, blocks, writes, tags, dirty, stamps, clock: int) -> L1Pass:
    """Run a reference stream through a 2-way LRU L1, without a loop.

    ``frames`` is each reference's first frame (``2 * set_index``),
    ``blocks`` its block address and ``writes`` its write flag;
    ``tags``/``dirty``/``stamps``/``clock`` are the L1's starting state
    (:class:`~repro.caches.simple.SetAssociativeCache`'s flat layout).

    The set's current residents are prepended, LRU first, as synthetic
    references; the stream is then stably sorted by set and
    consecutive repeats collapse into their first reference (a repeat
    is an MRU hit).  In that collapsed sequence a set holds exactly
    its previous two references, so a reference hits iff it equals the
    one two places back, and a miss evicts exactly that block.  The
    evicted block sits in the miss's way, so ways alternate along each
    set's sequence, starting from the LRU resident's way (way 0 for an
    empty set: the first free way).  Every reference advances the
    clock once (a hit's touch or a miss's fill), so a frame's final
    stamp is ``clock`` plus the stream position of its last reference.
    """
    n = len(blocks)
    tags = np.asarray(tags, dtype=np.int64)
    dirty = np.asarray(dirty, dtype=bool)
    stamps = np.asarray(stamps, dtype=np.int64)
    n_frames = len(tags)

    # Synthetic references for the residents, LRU first: way 1 leads
    # when strictly older (ties go to way 0, as SetAssociativeCache.fill
    # picks its victim).  Invalid frames drop out.
    lru1 = stamps[1::2] < stamps[0::2]
    first = np.arange(0, n_frames, 2, dtype=np.int64) + lru1
    syn = np.stack([first, first ^ 1], axis=1).ravel()
    syn = syn[tags[syn] >= 0]
    n_syn = len(syn)

    # Keys carry the way bit for synthetic references (the chain's
    # first way) and are 2 * set for real ones.
    key = np.concatenate([syn, frames])
    blk = np.concatenate([tags[syn], blocks])
    wr = np.concatenate([dirty[syn], writes])
    sort_key = (key >> 1).astype(np.uint16 if n_frames <= 65536 else np.int64)
    order = np.argsort(sort_key, kind="stable")
    s = sort_key[order]
    b = blk[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    np.logical_or(b[1:] != b[:-1], s[1:] != s[:-1], out=new[1:])
    rep = np.flatnonzero(new)
    m = len(rep)
    cb = b[rep]
    cs = s[rep]
    cw = np.logical_or.reduceat(wr[order], rep) if m else np.zeros(0, dtype=bool)

    # Position within the set's collapsed sequence, and the set's first
    # way, give each collapsed reference its frame.
    idx = np.arange(m)
    set_start = np.empty(m, dtype=bool)
    set_start[:1] = True
    np.not_equal(cs[1:], cs[:-1], out=set_start[1:])
    head = np.maximum.accumulate(np.where(set_start, idx, 0))
    k = idx - head
    cframe = (key[order[rep]] & ~1) | ((key[order[rep[head]]] ^ k) & 1)

    # A hit continues its frame's residency; anything else (a miss, a
    # resident's synthetic reference) starts one.
    hit = np.zeros(m, dtype=bool)
    hit[2:] = (k[2:] >= 2) & (cb[2:] == cb[:-2])
    # Dirty so far in each residency: a frame's collapsed references
    # are every other entry of its set's run, so one fold per parity.
    ds = np.empty(m, dtype=bool)
    for q in (0, 1):
        w_q = cw[q::2].astype(np.int64)
        cum = np.cumsum(w_q)
        j = np.arange(len(w_q))
        start = np.maximum.accumulate(np.where(hit[q::2], 0, j))
        ds[q::2] = cum - cum[start] + w_q[start] > 0

    # Misses in stream order.
    miss = np.flatnonzero(~hit & (order[rep] >= n_syn))
    slot = np.full(n, -1, dtype=np.int64)
    slot[order[rep[miss]] - n_syn] = miss
    miss_pos = np.flatnonzero(slot >= 0)
    miss = slot[miss_pos]
    has_victim = k[miss] >= 2
    prev = np.where(has_victim, miss - 2, 0)
    victim = np.where(has_victim, cb[prev], -1)
    victim_dirty = has_victim & ds[prev]

    # Final state: each frame's last collapsed reference.
    out_tags = tags.copy()
    out_dirty = dirty.copy()
    out_stamps = stamps.copy()
    ends = np.flatnonzero(np.append(set_start[1:], True))
    last = np.concatenate([ends, (ends - 1)[k[ends] >= 1]])
    lf = cframe[last]
    out_tags[lf] = cb[last]
    out_dirty[lf] = ds[last]
    rep_end = np.append(rep[1:], len(order))
    last_ref = order[rep_end[last] - 1] - n_syn
    real = last_ref >= 0
    out_stamps[lf[real]] = clock + last_ref[real]
    return L1Pass(
        miss_pos=miss_pos,
        fill_frame=cframe[miss],
        victim=victim,
        victim_dirty=victim_dirty,
        tags=out_tags,
        dirty=out_dirty,
        stamps=out_stamps,
        clock=clock + n,
    )


def replay(system, core, trace) -> bool:
    """Replay ``trace``, running Python only on L1 misses.

    Returns False, without touching any state, when the kernel cannot
    take the system; the caller then replays with the legacy loop.
    """
    l1 = system.l1d
    params = core.params
    if (
        l1.fault_injector is not None
        or getattr(l1, "_assoc", None) != 2
        or l1.spec.latency_cycles != params.l1_hit_cycles
        or l1.spec.block_bytes != params.l1_block_bytes
        or core.exposure > 1.0
    ):
        runtime_registry().add("vectorized.fallbacks")
        return False

    wall_start = perf_counter()
    hierarchy = system.hierarchy
    memory = system.memory
    lower = hierarchy.lower
    decoded = trace.decoded_batch(l1.spec.block_bytes, l1.n_sets)
    n_total = len(decoded)
    frames_np = decoded.np_frames
    baddrs_np = decoded.np_block_addrs
    writes_np = decoded.np_writes
    g_np = decoded.np_gaps

    l1_start = (l1._tags, l1._dirty, l1._stamps, l1._clock)
    l1_state = l1_pass(frames_np, baddrs_np, writes_np, *l1_start)
    miss_pos_np = l1_state.miss_pos
    l1_pass_wall = perf_counter() - wall_start

    l1_lat = l1.spec.latency_cycles
    l1_lat_f = float(l1_lat)
    l1_name = l1.name
    l1_energy = l1.energy
    l1_telem = l1.telemetry
    if l1_telem is not None:
        on_access = l1_telem.on_access
        l1_event = l1_telem.event

    # Core scalars, accumulated locally in the legacy op order.
    ipc = core.core_ipc
    bf = core.branch_fraction
    mr = core.mispredict_rate
    mp = params.mispredict_penalty
    exposure = core.exposure
    mlp_discount = params.memory_mlp_discount
    # MSHR state, fully inlined: the entries dict is shared in place;
    # min_fill and the three counters are kernel-local and flushed in
    # finally.  allocate's precondition checks (not full, no duplicate,
    # fill_at >= now) are guaranteed by the kernel's own control flow
    # and the exposure <= 1 guard above.
    mshr = core.mshrs
    mshr_entries = mshr._entries
    mshr_cap = mshr.capacity
    min_fill = mshr._min_fill
    occ_hist = mshr.occupancy_hist
    INF = float("inf")
    n_primary = n_merged = n_full = 0
    cycle = core.cycle
    memory_accesses = core.memory_accesses
    stall = core.stall_cycles
    mshr_stall = core.mshr_stall_cycles

    # Per-reference float terms, precomputed vectorized.  Elementwise
    # float64 ops equal the scalar expressions bit for bit (gaps are
    # small ints, exactly representable): t = gap/ipc and
    # p = ((gap*bf)*mr)*mp in the same association order.  The cycle
    # fold runs over the interleaved [t0, p0, t1, p1, ...].
    p_np = ((g_np * bf) * mr) * mp
    z_np = np.empty(2 * n_total, dtype=np.float64)
    np.divide(g_np, ipc, out=z_np[0::2])
    z_np[1::2] = p_np

    # Stretch ends: each miss, then the trace end, whose row carries
    # no address.  The scratch buffer fits the longest stretch's fold.
    ends = np.append(miss_pos_np + 1, n_total)
    longest = int(np.diff(ends, prepend=0).max())
    scratch = np.empty(2 * longest + 1, dtype=np.float64)
    miss_rows = zip(
        ends.tolist(),
        decoded.np_addresses[miss_pos_np].tolist() + [None],
        baddrs_np[miss_pos_np].tolist() + [-1],
        l1_state.victim.tolist() + [-1],
        l1_state.victim_dirty.tolist() + [False],
    )

    # Miss-path plumbing.
    stats = hierarchy.stats
    hist = hierarchy.miss_latency_hist
    first = lower[0]
    mem_lat = memory.transfer_cycles(lower[-1].block_bytes)
    lvl_names = [level.name for level in lower]
    n_lower = len(lower)

    # Batched integer counters (exact; flushed in finally).  gi is the
    # count of processed references and l1_done the count whose L1
    # effect (hit touch or fill) is applied; refs, instructions,
    # reads/writes and hits all derive from gi at flush time (each is
    # counted before the lower-level access that can raise, so the
    # interrupted-ref accounting matches the legacy loop).
    gi = 0
    l1_done = 0
    completed = False
    n_misses = 0
    n_fills = 0
    n_l1_wb = n_l1_wb_mem = 0
    n_mem_reads = n_mem_writes = 0
    lvl_acc = [0] * n_lower
    lvl_hits = [0] * n_lower
    lvl_wb = [0] * n_lower

    try:
        for end, address, baddr, vaddr, vdirty in miss_rows:
            # --- fold the stretch [gi, end): hits, then the miss -----
            run_n = end - gi
            if run_n >= _FOLD_MIN:
                m2 = 2 * run_n
                scratch[0] = cycle
                scratch[1 : m2 + 1] = z_np[2 * gi : 2 * end]
                np.add.accumulate(scratch[: m2 + 1], out=scratch[: m2 + 1])
                cycle = float(scratch[m2])
            else:
                for z in z_np[2 * gi : 2 * end].tolist():
                    cycle += z
            # The trace-end stretch (no address) is hits only.
            l1_done = end if address is None else end - 1
            if l1_telem is not None:
                for b in baddrs_np[gi:l1_done].tolist():
                    on_access(b, True, None, l1_lat_f)
            gi = end
            if address is None:
                break

            # --- L1 miss: CacheHierarchy._access, inlined ------------
            n_misses += 1
            if l1_telem is not None:
                on_access(baddr, False, None, l1_lat_f)
            total_latency = l1_lat
            level_name = "memory"
            missed: Optional[List[int]] = None
            supplied = False
            i = 0
            for level in lower:
                r = level.access(address, is_write=False, now=cycle + total_latency)
                total_latency += r.latency
                lvl_acc[i] += 1
                if r.hit:
                    level_name = r.level or lvl_names[i]
                    lvl_hits[i] += 1
                    supplied = True
                    break
                if missed is None:
                    missed = [i]
                else:
                    missed.append(i)
                i += 1
            if not supplied:
                n_mem_reads += 1
                total_latency += mem_lat

            fill_time = cycle + total_latency
            if missed is not None:
                for j in reversed(missed):
                    dirty_out = lower[j].fill(address, now=fill_time, dirty=False)
                    if dirty_out:
                        n_mem_writes += dirty_out
                        lvl_wb[j] += dirty_out

            # The L1 fill, precomputed by the pass: its telemetry
            # events in SetAssociativeCache.fill's order.
            n_fills += 1
            l1_done = end
            if l1_telem is not None:
                if vaddr >= 0:
                    l1_event("eviction", addr=vaddr)
                    if vdirty:
                        l1_event("writeback", addr=vaddr)
                l1_event("placement", addr=baddr)
            if vdirty:
                # _writeback_from_l1, inlined.
                n_l1_wb += 1
                rw = first.access(vaddr, is_write=True, now=fill_time)
                lvl_acc[0] += 1
                if rw.hit:
                    lvl_hits[0] += 1
                else:
                    n_mem_writes += 1
                    n_l1_wb_mem += 1
            if hist is not None:
                hist.record(total_latency)

            # note_memory_result, inlined (same float-op order).
            beyond_l1 = total_latency - l1_lat
            if beyond_l1 <= 0:
                continue
            if mshr_entries:
                if cycle >= min_fill:
                    for a in [a for a, e in mshr_entries.items() if e.fill_at <= cycle]:
                        del mshr_entries[a]
                    min_fill = INF
                    for e in mshr_entries.values():
                        if e.fill_at < min_fill:
                            min_fill = e.fill_at
                if len(mshr_entries) >= mshr_cap:
                    mshr_stall += min_fill - cycle
                    cycle = min_fill
                    for a in [a for a, e in mshr_entries.items() if e.fill_at <= cycle]:
                        del mshr_entries[a]
                    min_fill = INF
                    for e in mshr_entries.values():
                        if e.fill_at < min_fill:
                            min_fill = e.fill_at
                    n_full += 1
            exp = exposure
            if level_name == "memory":
                exp *= mlp_discount
            exposed = beyond_l1 * exp
            stall += exposed
            cycle += exposed
            fill_at = cycle + beyond_l1 * (1.0 - exposure)
            if baddr in mshr_entries:
                mshr_entries[baddr].merged += 1
                n_merged += 1
            else:
                mshr_entries[baddr] = MSHREntry(baddr, cycle, fill_at)
                if fill_at < min_fill:
                    min_fill = fill_at
                n_primary += 1
                if occ_hist is not None:
                    occ_hist.record(len(mshr_entries))
        completed = True
    finally:
        # Commit batched state.  Runs on an UncorrectableDataError
        # from a lower level too, leaving legacy-identical state: the
        # L1 then takes the pass over the prefix it had applied.
        if l1_done < n_total:
            l1_state = l1_pass(
                frames_np[:l1_done],
                baddrs_np[:l1_done],
                writes_np[:l1_done],
                *l1_start,
            )
        l1._tags[:] = l1_state.tags.tolist()
        l1._dirty[:] = l1_state.dirty.astype(np.uint8).tobytes()
        l1._stamps[:] = l1_state.stamps.tolist()
        l1._clock = l1_state.clock
        n_refs = gi
        # An interrupted miss never reached note_memory_result.
        n_noted = n_refs if completed else n_refs - 1
        n_writes = int(np.count_nonzero(writes_np[:gi]))
        n_reads = gi - n_writes
        n_hits = gi - n_misses
        # Branch penalties do not depend on misses: one left fold.
        bp_fold = np.empty(gi + 1, dtype=np.float64)
        bp_fold[0] = core.branch_penalty_cycles
        bp_fold[1:] = p_np[:gi]
        np.add.accumulate(bp_fold, out=bp_fold)
        l1.hits += n_hits
        l1.misses += n_misses
        l1.writebacks += n_l1_wb
        if n_reads:
            l1_energy.charge(f"{l1_name}.read", n_reads)
        if n_writes or n_fills:
            l1_energy.charge(f"{l1_name}.write", n_writes + n_fills)
        core.commit_batch(
            cycle=cycle,
            instructions=core.instructions + int(g_np[:gi].sum()),
            memory_accesses=memory_accesses + n_noted,
            branch_penalty_cycles=float(bp_fold[gi]),
            stall_cycles=stall,
            mshr_stall_cycles=mshr_stall,
        )
        if n_refs:
            stats.add("l1_accesses", n_refs)
        if n_hits:
            stats.add("l1_hits", n_hits)
        for i in range(n_lower):
            if lvl_acc[i]:
                stats.add(lvl_names[i] + "_accesses", lvl_acc[i])
            if lvl_hits[i]:
                stats.add(lvl_names[i] + "_hits", lvl_hits[i])
            if lvl_wb[i]:
                stats.add(lvl_names[i] + "_writebacks", lvl_wb[i])
        if n_l1_wb:
            stats.add("l1_writebacks", n_l1_wb)
        if n_l1_wb_mem:
            stats.add("l1_writebacks_to_memory", n_l1_wb_mem)
        if n_mem_reads:
            stats.add("memory_reads", n_mem_reads)
        memory.reads += n_mem_reads
        memory.writes += n_mem_writes
        mshr._min_fill = min_fill
        mshr.primary_misses += n_primary
        mshr.merged_misses += n_merged
        mshr.full_stalls += n_full
        reg = runtime_registry()
        reg.add("vectorized.refs", n_refs)
        reg.add("vectorized.refs_vector", n_hits)
        reg.add("vectorized.refs_scalar", n_misses)
        reg.add("vectorized.wall_s", perf_counter() - wall_start)
        reg.add("vectorized.l1_pass_wall_s", l1_pass_wall)
    return True
