"""Smart-search array: cached partial tags for D-NUCA (§4, §5.4).

The ss-array holds the ``ss_partial_bits`` least-significant tag bits
of every resident way ("we use the least significant tag bits to
decrease the probability of false hits").  A lookup returns the chain
levels whose partial tags match the request:

* no matching level → a guaranteed miss, detectable without touching
  any bank (ss-performance's early miss detection);
* matching levels → candidates to probe (ss-energy); a candidate whose
  full tag then mismatches is a *false hit*.

As a standalone model the array mirrors the banks' contents through
``insert``/``remove``/``move``.  :class:`~repro.nuca.cache.DNUCACache`
keeps only its lookup counters here: its flat frames already hold
every resident block at its level, so it reads the partial tags off
them instead of keeping a second copy.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import ConfigurationError, SimulationError


class SmartSearchArray:
    """Partial-tag directory over (set, level)."""

    def __init__(self, n_sets: int, chain_length: int, partial_bits: int, block_bytes: int) -> None:
        if n_sets <= 0 or chain_length <= 0:
            raise ConfigurationError("sets and chain length must be positive")
        if not 1 <= partial_bits <= 32:
            raise ConfigurationError("partial_bits must be in [1, 32]")
        self.n_sets = n_sets
        self.chain_length = chain_length
        self.partial_bits = partial_bits
        self.block_bytes = block_bytes
        self._mask = (1 << partial_bits) - 1
        #: set -> {block address -> level}, created on a set's first
        #: insert; partial tags are recomputed from addresses on lookup,
        #: which models the hardware's stored copies exactly.
        self._entries: Dict[int, Dict[int, int]] = {}
        self.lookups = 0
        self.false_hits = 0

    def partial_tag(self, block_addr: int) -> int:
        """The stored low-order tag bits for a block address."""
        tag = block_addr // self.block_bytes // self.n_sets
        return tag & self._mask

    # --- mirror maintenance ---

    def insert(self, index: int, block_addr: int, level: int) -> None:
        self._check(index, level)
        self._entries.setdefault(index, {})[block_addr] = level

    def remove(self, index: int, block_addr: int) -> None:
        try:
            del self._entries.get(index, {})[block_addr]
        except KeyError:
            raise SimulationError(
                f"ss-array remove of absent block {block_addr:#x}"
            ) from None

    def move(self, index: int, block_addr: int, level: int) -> None:
        self._check(index, level)
        if block_addr not in self._entries.get(index, {}):
            raise SimulationError(f"ss-array move of absent block {block_addr:#x}")
        self._entries[index][block_addr] = level

    # --- lookup ---

    def candidate_levels(self, index: int, block_addr: int) -> List[int]:
        """Chain levels with a partial-tag match, nearest first."""
        if not 0 <= index < self.n_sets:
            raise SimulationError(f"set {index} out of range")
        self.lookups += 1
        want = self.partial_tag(block_addr)
        levels = {
            level
            for resident, level in self._entries.get(index, {}).items()
            if self.partial_tag(resident) == want
        }
        return sorted(levels)

    def note_false_hit(self) -> None:
        self.false_hits += 1

    def _check(self, index: int, level: int) -> None:
        if not 0 <= index < self.n_sets:
            raise SimulationError(f"set {index} out of range")
        if not 0 <= level < self.chain_length:
            raise SimulationError(f"level {level} out of range")
