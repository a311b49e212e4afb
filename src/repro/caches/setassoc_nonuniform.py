"""Set-associative-*placement* non-uniform cache (Figure 4 baseline).

This is the paper's control experiment for distance associativity
(§5.2.1): a cache physically identical to NuRAPID (same d-group
geometry, same sequential tag-data access, same one-ported data side)
but with the conventional *coupling* of tag position to data position.
With A ways over G d-groups, exactly A/G specific ways of every set
live in each d-group, so at most A/G blocks of a hot set can ever be
fast.

Policies mirror the Figure 4 setup: initial placement in the fastest
d-group, demotion of replaced blocks to the next slower group (a
bubble-style chain within the set), LRU data replacement (the evicted
block is the LRU of the slowest group's ways — which, as the paper
notes for D-NUCA, "may not be the set's LRU block"), and next-fastest
promotion by swapping with the LRU way of the adjacent faster group.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.common import prewarm_cache
from repro.common.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import CacheTelemetry
from repro.common.stats import Counter, Distribution
from repro.common.types import AccessResult
from repro.caches.block import block_address, lru_way, set_index
from repro.caches.port import PortScheduler
from repro.floorplan.dgroups import NuRAPIDGeometry, build_nurapid_geometry
from repro.tech.energy import EnergyBook


class SetAssociativePlacementCache:
    """Non-uniform cache with tag-coupled data placement."""

    def __init__(
        self,
        capacity_bytes: int = 8 * 1024 * 1024,
        block_bytes: int = 128,
        associativity: int = 8,
        n_dgroups: int = 4,
        geometry: Optional[NuRAPIDGeometry] = None,
        energy: Optional[EnergyBook] = None,
        promote: bool = True,
        name: str = "SA-NUCA",
    ) -> None:
        if associativity % n_dgroups:
            raise ConfigurationError(
                "coupled placement needs associativity divisible by d-groups"
            )
        blocks = capacity_bytes // block_bytes
        if blocks % associativity:
            raise ConfigurationError("capacity must hold a whole number of sets")
        self.name = name
        self.block_bytes = block_bytes
        self.associativity = associativity
        self.n_dgroups = n_dgroups
        self.ways_per_dgroup = associativity // n_dgroups
        self.n_sets = blocks // associativity
        if block_bytes & (block_bytes - 1) or self.n_sets & (self.n_sets - 1):
            raise ConfigurationError(
                "coupled placement needs power-of-two block size and set count"
            )
        self.promote = promote
        self.geometry = geometry if geometry is not None else build_nurapid_geometry(
            n_dgroups=n_dgroups,
            capacity_bytes=capacity_bytes,
            block_bytes=block_bytes,
            associativity=associativity,
        )

        #: Flat per-frame state; frame = set_index * associativity + way.
        #: -1 in ``_addrs`` marks a free way.
        n_frames = self.n_sets * associativity
        self._addrs: List[int] = [-1] * n_frames
        self._dirty = bytearray(n_frames)
        #: Logical timestamp of the last touch, for LRU-within-group.
        self._touch: List[int] = [0] * n_frames
        self._where: List[Dict[int, int]] = [dict() for _ in range(self.n_sets)]
        self._clock = 0
        self.port = PortScheduler(f"{name}.port")

        self.energy = energy if energy is not None else EnergyBook()
        geo = self.geometry
        self.energy.register(f"{name}.tag_probe", geo.tag_energy_nj)
        for spec in geo.dgroups:
            self.energy.register(f"{name}.dg{spec.index}.read", spec.read_energy_nj)
            self.energy.register(f"{name}.dg{spec.index}.write", spec.write_energy_nj)
        for i in range(n_dgroups):
            for j in range(n_dgroups):
                if i != j:
                    self.energy.register(
                        f"{name}.move.{i}->{j}", geo.swap_energy_nj(i, j)
                    )

        self.stats = Counter()
        self.dgroup_hits = Distribution()
        #: Optional telemetry client (None is the null sink).
        self.telemetry: Optional["CacheTelemetry"] = None

        # Hot-path tables: per-d-group energy keys/costs, latencies and
        # port occupancies, mask/shift set indexing, and direct views
        # into the stats/energy dicts (both reset in place).  Pure
        # re-expressions of the state above; bit-identical to charging
        # through EnergyBook/Counter and requesting through the port.
        # The inlined port grants skip PortScheduler's guard checks
        # because they cannot fire: data and swap occupancies are at
        # least 2 cycles by construction (NuRAPIDGeometry) and request
        # times are the driver's non-negative clock plus tag cycles.
        self._block_mask = ~(block_bytes - 1)
        self._set_shift = block_bytes.bit_length() - 1
        self._set_mask = self.n_sets - 1
        groups = range(n_dgroups)
        self._group_of_way = tuple(
            way // self.ways_per_dgroup for way in range(associativity)
        )
        self._k_tag = f"{name}.tag_probe"
        self._tag_cost = self.energy.cost(self._k_tag)
        self._tag_cycles = geo.tag_cycles
        self._miss_latency = float(geo.miss_latency())
        self._k_read = [f"{name}.dg{g}.read" for g in groups]
        self._k_write = [f"{name}.dg{g}.write" for g in groups]
        self._read_cost = [self.energy.cost(k) for k in self._k_read]
        self._write_cost = [self.energy.cost(k) for k in self._k_write]
        self._data_occ = [geo.data_occupancy(g) for g in groups]
        self._data_cycles = [geo.dgroups[g].data_cycles for g in groups]
        self._k_move = [[f"{name}.move.{i}->{j}" for j in groups] for i in groups]
        self._swap_occ = [[geo.swap_occupancy(i, j) for j in groups] for i in groups]
        self._scounts = self.stats._counts
        self._ecounts = self.energy._count

    # --- way/d-group mapping (the coupling under study) ---

    def dgroup_of_way(self, way: int) -> int:
        if not 0 <= way < self.associativity:
            raise ConfigurationError(f"way {way} out of range")
        return way // self.ways_per_dgroup

    def _set_of(self, address: int) -> int:
        return set_index(address, self.block_bytes, self.n_sets)

    # --- lookups ---

    def contains(self, address: int) -> bool:
        baddr = block_address(address, self.block_bytes)
        return baddr in self._where[self._set_of(address)]

    def dgroup_of(self, address: int) -> Optional[int]:
        baddr = block_address(address, self.block_bytes)
        way = self._where[self._set_of(address)].get(baddr)
        return None if way is None else self.dgroup_of_way(way)

    # --- access path ---

    def access(self, address: int, is_write: bool = False, now: float = 0.0) -> AccessResult:
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        sc = self._scounts
        ec = self._ecounts
        sc["accesses"] = sc.get("accesses", 0) + 1
        self._clock += 1
        ec[self._k_tag] += 1
        energy = self._tag_cost

        way = self._where[index].get(baddr)
        if way is None:
            # Sequential tag-data access: the pipelined tag probe alone
            # determines the miss.
            sc["misses"] = sc.get("misses", 0) + 1
            if self.telemetry is not None:
                self.telemetry.on_access(baddr, False, None, self._miss_latency)
            return AccessResult(
                hit=False, latency=self._miss_latency, level=self.name, energy_nj=energy
            )

        group = self._group_of_way[way]
        sc["hits"] = sc.get("hits", 0) + 1
        dh = self.dgroup_hits.counts
        dh[group] = dh.get(group, 0) + 1
        frame = index * self.associativity + way
        self._touch[frame] = self._clock
        if is_write:
            self._dirty[frame] = 1
            ec[self._k_write[group]] += 1
            energy += self._write_cost[group]
        else:
            ec[self._k_read[group]] += 1
            energy += self._read_cost[group]
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1

        port = self.port
        occ = self._data_occ[group]
        t = now + self._tag_cycles
        bu = port.busy_until
        start = t if t >= bu else bu
        port.busy_until = start + occ
        port.total_busy += occ
        port.total_wait += start - t
        port.grants += 1
        latency = (start - now) + self._data_cycles[group]

        if self.telemetry is not None:
            self.telemetry.on_access(baddr, True, group, latency)

        if group > 0 and self.promote:
            self._promote(index, way, group, now + latency)

        return AccessResult(
            hit=True, latency=latency, level=self.name, dgroup=group, energy_nj=energy
        )

    def _promote(self, index: int, way: int, group: int, now: float) -> None:
        """Next-fastest promotion: swap with the adjacent group's LRU way."""
        target = group - 1
        wpg = self.ways_per_dgroup
        addrs, dirty, touch = self._addrs, self._dirty, self._touch
        base = index * self.associativity
        peer = lru_way(addrs, touch, base, base + target * wpg, wpg)
        sc = self._scounts
        sc["promotions"] = sc.get("promotions", 0) + 1
        fa = base + way
        fb = base + peer
        if self.telemetry is not None:
            self.telemetry.event(
                "promotion", addr=addrs[fa], src=group, dst=target, cycle=now
            )
        addrs[fa], addrs[fb] = addrs[fb], addrs[fa]
        dirty[fa], dirty[fb] = dirty[fb], dirty[fa]
        touch[fa], touch[fb] = touch[fb], touch[fa]
        where = self._where[index]
        where[addrs[fb]] = peer
        demoted = addrs[fa]
        if demoted >= 0:
            where[demoted] = way
        self._charge_move(group, target, now)
        if demoted >= 0:
            # A real two-way swap (the peer way was occupied).
            sc["demotions"] = sc.get("demotions", 0) + 1
            if self.telemetry is not None:
                self.telemetry.event(
                    "demotion", addr=demoted, src=target, dst=group, cycle=now
                )
            self._charge_move(target, group, now)

    def _charge_move(self, src: int, dst: int, now: float, occupy: bool = True) -> None:
        self._ecounts[self._k_move[src][dst]] += 1
        sc = self._scounts
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 2
        sc["moves"] = sc.get("moves", 0) + 1
        if occupy:
            port = self.port
            occ = self._swap_occ[src][dst]
            bu = port.busy_until
            start = now if now >= bu else bu
            port.busy_until = start + occ
            port.total_busy += occ
            port.total_wait += start - now
            port.grants += 1

    # --- fills: place fastest, bubble-demote within the set ---

    def fill(self, address: int, now: float = 0.0, dirty: bool = False) -> int:
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        where = self._where[index]
        if baddr in where:
            return 0
        sc = self._scounts
        sc["fills"] = sc.get("fills", 0) + 1
        self._clock += 1
        addrs, dirty_bits, touch = self._addrs, self._dirty, self._touch
        base = index * self.associativity
        wpg = self.ways_per_dgroup
        writebacks = 0

        # If the set is full, evict the LRU way of the slowest group
        # (bubble data replacement: not necessarily the set's LRU).
        # Every way of a full set is occupied, so the LRU way is too.
        if len(where) >= self.associativity:
            slowest = self.n_dgroups - 1
            frame = base + lru_way(addrs, touch, base, base + slowest * wpg, wpg)
            victim_addr = addrs[frame]
            assert victim_addr >= 0
            del where[victim_addr]
            sc["evictions"] = sc.get("evictions", 0) + 1
            if self.telemetry is not None:
                self.telemetry.event(
                    "eviction", addr=victim_addr, dgroup=slowest, cycle=now
                )
            if dirty_bits[frame]:
                writebacks = 1
                sc["writebacks"] = sc.get("writebacks", 0) + 1
                self._ecounts[self._k_read[slowest]] += 1
                sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
                if self.telemetry is not None:
                    self.telemetry.event(
                        "writeback", addr=victim_addr, dgroup=slowest, cycle=now
                    )
            addrs[frame] = -1
            dirty_bits[frame] = 0
            touch[frame] = 0

        # Demotion chain toward the freed (or naturally free) way.
        group = 0
        carry_addr = baddr
        carry_dirty = 1 if dirty else 0
        carry_touch = self._clock
        while True:
            way = lru_way(addrs, touch, base, base + group * wpg, wpg)
            frame = base + way
            displaced = addrs[frame]
            displaced_dirty = dirty_bits[frame]
            displaced_touch = touch[frame]
            addrs[frame] = carry_addr
            dirty_bits[frame] = carry_dirty
            touch[frame] = carry_touch
            where[carry_addr] = way
            if group > 0:
                sc["demotions"] = sc.get("demotions", 0) + 1
                if self.telemetry is not None:
                    self.telemetry.event(
                        "demotion", addr=carry_addr, src=group - 1, dst=group, cycle=now
                    )
                self._charge_move(group - 1, group, now, occupy=False)
            if displaced < 0:
                break
            carry_addr = displaced
            carry_dirty = displaced_dirty
            carry_touch = displaced_touch
            group += 1
            if group >= self.n_dgroups:
                raise SimulationError("demotion chain overran the slowest group")

        self._ecounts[self._k_write[0]] += 1
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
        if self.telemetry is not None:
            self.telemetry.event("placement", addr=baddr, dgroup=0, cycle=now)
        return writebacks

    # --- prewarm ---

    PREWARM_BASE = 1 << 45

    def prewarm(self) -> None:
        """Fill every way with a clean dummy block (steady-state start).

        Way ``w`` of set ``i`` gets ``PREWARM_BASE + (w * sets + i) *
        block_bytes``.  On an empty cache the fill depends only on the
        set count, associativity and block size, so it is restored from
        a shared prototype (:mod:`repro.common.prewarm_cache`); a
        partly filled cache gets dummies in its free ways only.
        """
        sets = self.n_sets
        assoc = self.associativity
        bb = self.block_bytes
        if not any(self._where):
            key = f"{type(self).__qualname__}|{sets}|{assoc}|{bb}"
            proto = prewarm_cache.get(key)
            if proto is None:
                addrs = prewarm_cache.dummy_addresses(self.PREWARM_BASE, sets, assoc, bb)
                proto = (addrs, prewarm_cache.way_maps(addrs, assoc))
                prewarm_cache.put(key, proto)
            addrs, where = proto
            self._addrs[:] = addrs
            self._dirty[:] = bytes(len(addrs))
            self._touch[:] = [0] * len(addrs)
            self._where[:] = [dict(w) for w in where]
            return
        for index in range(sets):
            base = index * assoc
            for way in range(assoc):
                if self._addrs[base + way] >= 0:
                    continue
                baddr = self.PREWARM_BASE + (way * sets + index) * bb
                self._addrs[base + way] = baddr
                self._dirty[base + way] = 0
                self._touch[base + way] = 0
                self._where[index][baddr] = way

    # --- introspection ---

    @property
    def miss_rate(self) -> float:
        total = self.stats.get("accesses")
        if not total:
            return 0.0
        return self.stats.get("misses") / total

    def reset_stats(self) -> None:
        """Zero counters after warmup; contents and port timeline kept."""
        self.stats.reset()
        self.dgroup_hits = Distribution()
        self.energy.reset_counts()
        self.port.total_busy = 0.0
        self.port.total_wait = 0.0
        self.port.grants = 0

    def check_invariants(self) -> None:
        for index in range(self.n_sets):
            base = index * self.associativity
            where = self._where[index]
            occupied = sum(
                1 for way in range(self.associativity) if self._addrs[base + way] >= 0
            )
            if len(where) != occupied:
                raise SimulationError(f"set {index} map/slot count mismatch")
            for baddr, way in where.items():
                if self._addrs[base + way] != baddr:
                    raise SimulationError(f"set {index} way {way} map mismatch")
                if self._set_of(baddr) != index:
                    raise SimulationError(f"block {baddr:#x} in wrong set")
