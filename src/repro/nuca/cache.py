"""The D-NUCA cache model.

Organization (§4): the 16 ways of each set spread across a *chain* of
``chain_length`` banks at increasing distance, ``ways_per_bank`` ways
in each.  Blocks enter at the tail (slowest bank), bubble one bank
closer on each hit, and are evicted from the slowest ways — so, as the
paper notes, the victim "may not be the set's LRU block".

Bandwidth model: every bank has its own port (multibanking); the
switched network has infinite bandwidth and zero switch energy — both
idealizations the paper grants D-NUCA (§4).  Searches therefore queue
only at banks, but *every* searched bank is occupied by its probe,
which is exactly the artificial bandwidth demand §2.3 argues NuRAPID
removes.

State is flat, as in :class:`~repro.caches.setassoc_nonuniform.
SetAssociativePlacementCache`: frame ``set * associativity + position``
indexes ``_addrs`` (resident block address, -1 = free way), ``_dirty``
and ``_touch`` (logical time of the last touch, for LRU within a
bank); position ``p`` lives at chain level ``p // ways_per_bank``.
One cache-wide dict, ``_where``, maps each resident block to its
position.  The smart-search array's contents are the partial tags of
a set's resident ways at their levels, so they are read straight off
``_addrs`` rather than mirrored.
"""

from __future__ import annotations

from itertools import cycle
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.common import prewarm_cache
from repro.common.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import CacheTelemetry
from repro.common.stats import Counter, Distribution
from repro.common.types import AccessResult
from repro.caches.block import block_address, lru_way, set_index
from repro.caches.port import PortScheduler
from repro.floorplan.dgroups import DNUCAGeometry, build_dnuca_geometry
from repro.nuca.config import DNUCAConfig, SearchPolicy
from repro.nuca.smart_search import SmartSearchArray
from repro.tech.energy import EnergyBook


class DNUCACache:
    """Dynamic NUCA L2 implementing the lower-level protocol."""

    def __init__(
        self,
        config: DNUCAConfig,
        geometry: Optional[DNUCAGeometry] = None,
        energy: Optional[EnergyBook] = None,
    ) -> None:
        self.config = config
        self.name = config.name
        self.block_bytes = config.block_bytes
        self.geometry = geometry if geometry is not None else build_dnuca_geometry(
            capacity_bytes=config.capacity_bytes,
            block_bytes=config.block_bytes,
            associativity=config.associativity,
            bank_bytes=config.bank_bytes,
            chain_length=config.chain_length,
            ss_partial_bits=config.ss_partial_bits,
        )
        if self.geometry.chain_length != config.chain_length:
            raise ConfigurationError("geometry and config disagree on chain length")
        if self.geometry.sets != config.n_sets:
            raise ConfigurationError("geometry and config disagree on sets")

        self.n_sets = config.n_sets
        self.ways_per_bank = config.ways_per_bank
        self._assoc = config.associativity
        n_frames = self.n_sets * self._assoc
        self._addrs: List[int] = [-1] * n_frames
        self._dirty = bytearray(n_frames)
        self._touch: List[int] = [0] * n_frames
        #: Cache-wide block address -> position within its set.
        self._where: Dict[int, int] = {}
        self._clock = 0
        self._ports = [PortScheduler(f"{self.name}.bank{i}") for i in range(self.geometry.n_banks)]

        self.smart_search = SmartSearchArray(
            self.n_sets, config.chain_length, config.ss_partial_bits, config.block_bytes
        )
        self.energy = energy if energy is not None else EnergyBook()
        self._register_energy()

        self.stats = Counter()
        self.dgroup_hits = Distribution()
        #: Optional telemetry client (None is the null sink).
        self.telemetry: Optional["CacheTelemetry"] = None
        self._build_hot_tables()

    def _register_energy(self) -> None:
        self.energy.register(f"{self.name}.ss_probe", self.geometry.ss_energy_nj)
        for bank in self.geometry.banks:
            base = f"{self.name}.bank{bank.index}"
            self.energy.register(f"{base}.probe", bank.probe_energy_nj)
            self.energy.register(f"{base}.read", bank.read_energy_nj)
            self.energy.register(f"{base}.write", bank.write_energy_nj)
            self.energy.register(f"{base}.move", bank.swap_energy_nj)

    def _build_hot_tables(self) -> None:
        """Precompute everything the access/fill paths would rebuild.

        Per-bank energy keys and costs, per-``(chain, level)`` search
        rows, mask/shift address decomposition, and direct views of
        the stats/energy/ss-array dicts (all reset or restored in
        place, so the views stay valid).  Pure re-expressions of the
        state above: counter totals and float math are bit-identical
        to charging through :class:`EnergyBook`/:class:`Counter` and
        requesting through :class:`PortScheduler`.

        The inlined port grants skip the scheduler's guard checks
        because they cannot fire: every bank's occupancy is at least
        one cycle (see :func:`build_dnuca_geometry`) and every request
        time is the driver's non-negative clock plus non-negative
        search latency.
        """
        config = self.config
        geo = self.geometry
        bb = config.block_bytes
        if bb & (bb - 1) or self.n_sets & (self.n_sets - 1):
            raise ConfigurationError(
                "D-NUCA needs power-of-two block size and set count"
            )
        self._block_mask = ~(bb - 1)
        self._set_shift = bb.bit_length() - 1
        self._set_mask = self.n_sets - 1
        # ss-array partial tag: block_addr // block_bytes // n_sets, masked.
        self._ptag_shift = self._set_shift + self.n_sets.bit_length() - 1
        self._ptag_mask = (1 << config.ss_partial_bits) - 1
        self._n_chains = geo.n_chains
        self._chain_length = config.chain_length
        self._insert_level = config.chain_length - 1 if config.tail_insertion else 0
        self._level_of_pos = tuple(
            p // self.ways_per_bank for p in range(self._assoc)
        )
        self._ss_latency = float(geo.ss_latency_cycles)
        self._k_ss = f"{self.name}.ss_probe"
        self._ss_cost = self.energy.cost(self._k_ss)

        name = self.name
        banks = geo.banks
        k_probe = [f"{name}.bank{b.index}.probe" for b in banks]
        k_read = [f"{name}.bank{b.index}.read" for b in banks]
        self._k_read = k_read
        self._k_write = [f"{name}.bank{b.index}.write" for b in banks]
        self._k_move = [f"{name}.bank{b.index}.move" for b in banks]
        self._bank_occ = [b.occupancy_cycles for b in banks]
        #: per chain: bank index at each level, nearest first.
        self._chain_banks = [
            tuple(
                geo.chain_bank(chain, level).index
                for level in range(config.chain_length)
            )
            for chain in range(geo.n_chains)
        ]
        #: per chain, per level: (port, occupancy, latency, probe key,
        #: probe cost, read key, read cost) — the search loop's row.
        self._chain_rows = [
            tuple(
                (
                    self._ports[bi],
                    banks[bi].occupancy_cycles,
                    banks[bi].latency_cycles,
                    k_probe[bi],
                    self.energy.cost(k_probe[bi]),
                    k_read[bi],
                    self.energy.cost(k_read[bi]),
                )
                for bi in chain_banks
            )
            for chain_banks in self._chain_banks
        ]
        self._scounts = self.stats._counts
        self._ecounts = self.energy._count

    # --- lookups ---

    def _set_of(self, address: int) -> int:
        return set_index(address, self.block_bytes, self.n_sets)

    def contains(self, address: int) -> bool:
        return block_address(address, self.block_bytes) in self._where

    def level_of(self, address: int) -> Optional[int]:
        pos = self._where.get(block_address(address, self.block_bytes))
        return None if pos is None else self._level_of_pos[pos]

    # --- the access path ---

    def access(self, address: int, is_write: bool = False, now: float = 0.0) -> AccessResult:
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        sc = self._scounts
        sc["accesses"] = sc.get("accesses", 0) + 1
        self._clock += 1

        policy = self.config.policy
        energy = 0.0
        if policy is not SearchPolicy.INCREMENTAL:
            self._ecounts[self._k_ss] += 1
            energy += self._ss_cost
            self.smart_search.lookups += 1

        pos = self._where.get(baddr)
        level = None if pos is None else self._level_of_pos[pos]

        if policy is SearchPolicy.SS_PERFORMANCE:
            result = self._access_multicast(index, baddr, level, now, energy)
        else:
            result = self._access_sequential(index, baddr, level, now, energy, policy)

        if result.hit:
            sc["hits"] = sc.get("hits", 0) + 1
            dh = self.dgroup_hits.counts
            dh[level] = dh.get(level, 0) + 1
            frame = index * self._assoc + pos
            self._touch[frame] = self._clock
            if is_write:
                self._dirty[frame] = 1
            if self.telemetry is not None:
                self.telemetry.on_access(baddr, True, level, result.latency)
            if level > 0 and self.config.promote_on_hit:
                self._promote(index, pos, now + result.latency)
        else:
            sc["misses"] = sc.get("misses", 0) + 1
            if self.telemetry is not None:
                self.telemetry.on_access(baddr, False, None, result.latency)
        return result

    def _access_multicast(
        self,
        index: int,
        baddr: int,
        level: Optional[int],
        now: float,
        energy: float,
    ) -> AccessResult:
        """ss-performance: search every bank; ss-array detects misses early."""
        rows = self._chain_rows[index % self._n_chains]
        sc = self._scounts
        ec = self._ecounts
        chain = self._chain_length
        if level is None:
            shift = self._ptag_shift
            mask = self._ptag_mask
            want = (baddr >> shift) & mask
            base = index * self._assoc
            for resident in self._addrs[base : base + self._assoc]:
                if resident >= 0 and (resident >> shift) & mask == want:
                    break
            else:
                # Early miss: no partial match, no bank is touched for
                # data, but the multicast has already gone out in this
                # policy.
                sc["early_misses"] = sc.get("early_misses", 0) + 1
                for port, occ, _, k_probe, _, _, _ in rows:
                    bu = port.busy_until
                    start = now if now >= bu else bu
                    port.busy_until = start + occ
                    port.total_busy += occ
                    port.total_wait += start - now
                    port.grants += 1
                    ec[k_probe] += 1
                sc["bank_probes"] = sc.get("bank_probes", 0) + chain
                return AccessResult(
                    hit=False, latency=self._ss_latency, level=self.name, energy_nj=energy
                )

        worst = 0.0
        hit_response = 0.0
        for lv, (port, occ, lat, k_probe, c_probe, k_read, c_read) in enumerate(rows):
            bu = port.busy_until
            start = now if now >= bu else bu
            port.busy_until = start + occ
            port.total_busy += occ
            wait = start - now
            port.total_wait += wait
            port.grants += 1
            response = wait + lat
            if lv == level:
                energy += c_read
                ec[k_read] += 1
                hit_response = response
            else:
                energy += c_probe
                ec[k_probe] += 1
            if response > worst:
                worst = response

        if level is not None:
            # Same counter totals and first-insertion order as counting
            # bank by bank: probes nearer than the block, its read, the
            # probes beyond it.
            if level:
                sc["bank_probes"] = sc.get("bank_probes", 0) + level
            sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
            if level < chain - 1:
                sc["bank_probes"] = sc.get("bank_probes", 0) + (chain - 1 - level)
            return AccessResult(
                hit=True,
                latency=hit_response,
                level=self.name,
                dgroup=level,
                energy_nj=energy,
            )
        # Partial match that wasn't the block: the miss is known only
        # when the slowest probe returns.
        sc["bank_probes"] = sc.get("bank_probes", 0) + chain
        self.smart_search.false_hits += 1
        sc["false_hits"] = sc.get("false_hits", 0) + 1
        return AccessResult(hit=False, latency=worst, level=self.name, energy_nj=energy)

    def _access_sequential(
        self,
        index: int,
        baddr: int,
        level: Optional[int],
        now: float,
        energy: float,
        policy: SearchPolicy,
    ) -> AccessResult:
        """ss-energy / incremental: probe candidate banks nearest first."""
        rows = self._chain_rows[index % self._n_chains]
        sc = self._scounts
        ec = self._ecounts
        if policy is SearchPolicy.SS_ENERGY:
            shift = self._ptag_shift
            mask = self._ptag_mask
            want = (baddr >> shift) & mask
            base = index * self._assoc
            candidates = sorted(
                {
                    lv
                    for resident, lv in zip(
                        self._addrs[base : base + self._assoc], self._level_of_pos
                    )
                    if resident >= 0 and (resident >> shift) & mask == want
                }
            )
            elapsed = self._ss_latency
            false_hit = True
        else:
            candidates = range(self._chain_length)
            elapsed = 0.0
            false_hit = False
        for lv in candidates:
            port, occ, lat, k_probe, c_probe, k_read, c_read = rows[lv]
            t = now + elapsed
            bu = port.busy_until
            start = t if t >= bu else bu
            port.busy_until = start + occ
            port.total_busy += occ
            wait = start - t
            port.total_wait += wait
            port.grants += 1
            response = wait + lat
            if lv == level:
                energy += c_read
                ec[k_read] += 1
                sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
                return AccessResult(
                    hit=True,
                    latency=elapsed + response,
                    level=self.name,
                    dgroup=level,
                    energy_nj=energy,
                )
            energy += c_probe
            ec[k_probe] += 1
            sc["bank_probes"] = sc.get("bank_probes", 0) + 1
            if false_hit:
                self.smart_search.false_hits += 1
                sc["false_hits"] = sc.get("false_hits", 0) + 1
            elapsed += response
        return AccessResult(hit=False, latency=elapsed, level=self.name, energy_nj=energy)

    # --- bubble promotion ---

    def _promote(self, index: int, position: int, now: float) -> None:
        """Swap one level closer to the core (generational promotion)."""
        level = self._level_of_pos[position]
        target = level - 1
        wpb = self.ways_per_bank
        addrs, dirty, touch = self._addrs, self._dirty, self._touch
        base = index * self._assoc
        peer = lru_way(addrs, touch, base, base + target * wpb, wpb)
        fa = base + position
        fb = base + peer
        moving = addrs[fa]
        displaced = addrs[fb]
        addrs[fa], addrs[fb] = displaced, moving
        dirty[fa], dirty[fb] = dirty[fb], dirty[fa]
        touch[fa], touch[fb] = touch[fb], touch[fa]
        where = self._where
        where[moving] = peer
        if displaced >= 0:
            where[displaced] = position

        sc = self._scounts
        sc["promotions"] = sc.get("promotions", 0) + 1
        if self.telemetry is not None:
            self.telemetry.event(
                "promotion", addr=moving, src=level, dst=target, cycle=now
            )
        banks = self._chain_banks[index % self._n_chains]
        self._charge_move(banks[level], banks[target], now)
        if displaced >= 0:
            sc["demotions"] = sc.get("demotions", 0) + 1
            if self.telemetry is not None:
                self.telemetry.event(
                    "demotion", addr=displaced, src=target, dst=level, cycle=now
                )
            self._charge_move(banks[target], banks[level], now)

    def _charge_move(self, src: int, dst: int, now: float) -> None:
        """One block move between banks ``src`` and ``dst``.

        Read at the source, write at the destination, one network hop
        in between (charged in the source bank's move op).
        """
        self._ecounts[self._k_move[src]] += 1
        sc = self._scounts
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 2
        sc["moves"] = sc.get("moves", 0) + 1
        for bi in (src, dst):
            port = self._ports[bi]
            occ = self._bank_occ[bi]
            bu = port.busy_until
            start = now if now >= bu else bu
            port.busy_until = start + occ
            port.total_busy += occ
            port.total_wait += start - now
            port.grants += 1

    # --- fills (tail insertion + slowest-way eviction) ---

    def fill(self, address: int, now: float = 0.0, dirty: bool = False) -> int:
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        where = self._where
        if baddr in where:
            return 0
        sc = self._scounts
        sc["fills"] = sc.get("fills", 0) + 1
        self._clock += 1
        insert_level = self._insert_level
        bank = self._chain_banks[index % self._n_chains][insert_level]

        writebacks = 0
        wpb = self.ways_per_bank
        base = index * self._assoc
        position = lru_way(self._addrs, self._touch, base, base + insert_level * wpb, wpb)
        frame = base + position
        old = self._addrs[frame]
        if old >= 0:
            # Evict the slowest (or fastest, under head insertion) way.
            del where[old]
            sc["evictions"] = sc.get("evictions", 0) + 1
            if self.telemetry is not None:
                self.telemetry.event(
                    "eviction", addr=old, dgroup=insert_level, cycle=now
                )
            if self._dirty[frame]:
                writebacks = 1
                sc["writebacks"] = sc.get("writebacks", 0) + 1
                self._ecounts[self._k_read[bank]] += 1
                sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
                if self.telemetry is not None:
                    self.telemetry.event(
                        "writeback", addr=old, dgroup=insert_level, cycle=now
                    )

        self._addrs[frame] = baddr
        self._dirty[frame] = 1 if dirty else 0
        self._touch[frame] = self._clock
        where[baddr] = position
        self._ecounts[self._k_write[bank]] += 1
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
        if self.telemetry is not None:
            self.telemetry.event(
                "placement", addr=baddr, dgroup=insert_level, cycle=now
            )
        return writebacks

    # --- prewarm (models the paper's 5B-instruction fast-forward) ---

    PREWARM_BASE = 1 << 45

    def prewarm(self) -> None:
        """Fill every way of every bank with a clean dummy block.

        Mirrors :meth:`repro.nurapid.cache.NuRAPIDCache.prewarm`: short
        traces cannot populate 8 MB, and a half-empty D-NUCA would see
        neither tail evictions nor promotion swaps.  Dummies never
        alias workload addresses and cost no writebacks.

        The fill depends only on the set count, associativity, block
        size and chain length — not on the name, seed or search policy
        — so every D-NUCA variant of one shape shares one prototype in
        :mod:`repro.common.prewarm_cache`.
        """
        if self.resident_blocks():
            raise SimulationError("prewarm on a non-empty cache")
        key = (
            f"{type(self).__qualname__}|{self.n_sets}|{self._assoc}"
            f"|{self.block_bytes}|{self._chain_length}"
        )
        proto = prewarm_cache.get(key)
        if proto is None:
            addrs = prewarm_cache.dummy_addresses(
                self.PREWARM_BASE, self.n_sets, self._assoc, self.block_bytes
            )
            proto = (addrs, dict(zip(addrs, cycle(range(self._assoc)))))
            prewarm_cache.put(key, proto)
        # Install copies (never aliasing the prototype), in place so the
        # hot-path views stay valid.
        addrs, where = proto
        self._addrs[:] = addrs
        self._dirty[:] = bytes(len(addrs))
        self._touch[:] = [0] * len(addrs)
        self._where.clear()
        self._where.update(where)

    # --- introspection ---

    @property
    def bank_ports(self):
        """The per-bank schedulers (telemetry reads queue pressure here)."""
        return self._ports

    @property
    def miss_rate(self) -> float:
        total = self.stats.get("accesses")
        if not total:
            return 0.0
        return self.stats.get("misses") / total

    def resident_blocks(self) -> int:
        return len(self._where)

    def reset_stats(self) -> None:
        """Zero counters after warmup; contents and bank timelines kept."""
        self.stats.reset()
        self.dgroup_hits = Distribution()
        self.energy.reset_counts()
        self.smart_search.lookups = 0
        self.smart_search.false_hits = 0
        for port in self._ports:
            port.total_busy = 0.0
            port.total_wait = 0.0
            port.grants = 0

    def check_invariants(self) -> None:
        addrs = self._addrs
        occupied = 0
        for frame, baddr in enumerate(addrs):
            if baddr < 0:
                continue
            occupied += 1
            index, pos = divmod(frame, self._assoc)
            if self._where.get(baddr) != pos:
                raise SimulationError(f"set {index} position {pos} mismatch")
            if self._set_of(baddr) != index:
                raise SimulationError(f"block {baddr:#x} in wrong set")
        if len(self._where) != occupied:
            raise SimulationError(
                f"{len(self._where)} mapped blocks but {occupied} occupied ways"
            )
