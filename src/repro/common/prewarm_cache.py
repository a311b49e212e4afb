"""Process-wide prewarm prototype registry.

Prewarming a large cache model builds the same steady-state containers
(tag arrays, frame stores, replacement recency) every time a cache of the
same shape is constructed — profiling shows it is ~40% of a NuRAPID
cell's setup, repeated for every benchmark x config x repetition.  The
fill itself draws no RNG and charges no stats or energy, so its result
is a pure function of the cache's construction parameters: the first
prewarm of a given key snapshots the filled containers here, and later
prewarms of the same key restore a fresh copy instead of re-running
the fill.  Both directions copy, so prototypes never alias live cache
state; restore is bit-identical to a re-run by construction (the
snapshot is the re-run's exact output).

``REPRO_PREWARM_CACHE=0`` (or ``off``/``no``/``false``) disables the
registry, forcing every prewarm to run the full fill — the escape
hatch for debugging and for the parity tests that prove restore and
re-run agree.

Every lookup is one prewarm, counted in the runtime registry
(:func:`repro.telemetry.runtime.runtime_registry`) as
``prewarm.restores`` when a prototype was found and ``prewarm.builds``
when the caller runs the full fill — so cold and warm system builds
can be told apart.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import List, Optional

import numpy as np

from repro.telemetry.runtime import runtime_registry

#: Distinct cache shapes retained (FIFO).  Suites sweep only a handful
#: of shapes; the cap bounds memory if something generates many.
MAX_PROTOTYPES = 8

_snapshots: "OrderedDict[str, object]" = OrderedDict()


def enabled() -> bool:
    """Whether prototype reuse is on (default) — $REPRO_PREWARM_CACHE gate."""
    flag = os.environ.get("REPRO_PREWARM_CACHE", "1").strip().lower()
    return flag not in {"0", "off", "no", "false"}


def get(key: str) -> Optional[object]:
    """The stored prototype for ``key``, or None (the caller then builds it)."""
    proto = _snapshots.get(key) if enabled() else None
    runtime_registry().add("prewarm.builds" if proto is None else "prewarm.restores")
    return proto


def put(key: str, snapshot: object) -> None:
    """Store ``snapshot`` under ``key`` (evicting the oldest past the cap)."""
    if not enabled():
        return
    _snapshots[key] = snapshot
    while len(_snapshots) > MAX_PROTOTYPES:
        _snapshots.popitem(last=False)


def clear() -> None:
    """Drop every prototype (tests)."""
    _snapshots.clear()


def dummy_addresses(base: int, sets: int, ways: int, block_bytes: int) -> List[int]:
    """Prewarm dummy block addresses for every (set, way), set-major.

    Entry ``i * ways + w`` is ``base + (w * sets + i) * block_bytes``:
    way ``w`` of set ``i``, materialized in one C pass.
    """
    grid = (
        np.arange(sets, dtype=np.int64)[:, None]
        + np.arange(ways, dtype=np.int64)[None, :] * sets
    )
    return (base + grid * block_bytes).ravel().tolist()

