"""Cache-block bookkeeping shared by all cache organizations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.common.errors import ConfigurationError


@dataclass
class CacheBlock:
    """State for one resident cache block.

    ``block_addr`` is the block-aligned byte address (the full address
    with offset bits cleared) — keeping the whole address rather than
    a (tag, set) pair makes blocks portable across organizations with
    different indexing.
    """

    block_addr: int
    dirty: bool = False

    def __post_init__(self) -> None:
        if self.block_addr < 0:
            raise ConfigurationError("block address must be non-negative")


def block_address(address: int, block_bytes: int) -> int:
    """Align ``address`` down to its ``block_bytes`` boundary."""
    if block_bytes <= 0 or block_bytes & (block_bytes - 1):
        raise ConfigurationError(
            f"block size must be a positive power of two, got {block_bytes}"
        )
    return address & ~(block_bytes - 1)


def set_index(address: int, block_bytes: int, n_sets: int) -> int:
    """Set index of ``address`` for a cache with ``n_sets`` sets."""
    if n_sets <= 0 or n_sets & (n_sets - 1):
        raise ConfigurationError(
            f"set count must be a positive power of two, got {n_sets}"
        )
    return (address // block_bytes) & (n_sets - 1)


def lru_way(addrs: List[int], touch: List[int], base: int, first: int, count: int) -> int:
    """Replacement choice among ``count`` flat frames starting at ``first``.

    For flat per-frame state (``addrs`` -1 = free, ``touch`` = logical
    time of the last touch) of the set whose frames start at ``base``:
    the way (frame - base) of the first free frame, else of the least
    recently touched one, the first of equals.
    """
    best = -1
    best_touch = 0
    for frame in range(first, first + count):
        if addrs[frame] < 0:
            return frame - base
        if best < 0 or touch[frame] < best_touch:
            best, best_touch = frame, touch[frame]
    return best - base
