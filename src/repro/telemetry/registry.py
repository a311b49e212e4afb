"""Hierarchical stat registry: named scopes, counters, and histograms.

The registry is the aggregation backbone of :mod:`repro.telemetry`.
Every stat lives under a dotted path (``l2.dg0.hits``); producers hold
a :class:`Scope` (a prefix view onto the shared registry) so a cache
never has to know where in the hierarchy it was mounted.  Two
invariants make distributed collection safe:

* **int-exact counters** — integer increments accumulate as Python
  ints, so counters never drift through float rounding and any
  partition of the increments merges back to the serial total exactly
  (the same guarantee :class:`repro.common.stats.Counter` gives).
* **lossless merge** — :meth:`StatRegistry.merge` adds counters and
  bucket counts; merging per-worker registries from
  :mod:`repro.sim.parallel` in a deterministic order reproduces a
  serial run's registry bit for bit.

Histograms use fixed, explicit bucket bounds chosen at creation time
(access latency, reuse distance, MSHR occupancy each have a canonical
set below), so two registries built from the same code always agree on
bucketing and merge without resampling.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError

#: Canonical bucket bounds (upper edges, inclusive) for cache access
#: latencies in cycles.  Spans L1 hits through memory round trips.
LATENCY_BOUNDS: Tuple[float, ...] = (
    4, 8, 12, 16, 20, 24, 32, 40, 48, 64, 96, 128, 192, 256, 384, 512,
)

#: Canonical bounds for inter-access (reuse) distance, measured in
#: accesses at the observing cache.  Log-spaced: reuse behaviour is
#: heavy-tailed.
REUSE_BOUNDS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
    1024, 4096, 16384, 65536, 262144,
)


def occupancy_bounds(capacity: int) -> Tuple[float, ...]:
    """One bucket per occupancy level for a structure of ``capacity``."""
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    return tuple(float(level) for level in range(capacity + 1))


class Histogram:
    """Fixed-bucket histogram with lossless merge.

    ``bounds`` are strictly increasing upper edges (inclusive); one
    extra overflow bucket catches values above the last edge.  Bucket
    counts are int-exact under integer weights, so merge is associative
    and commutative; ``sum`` accumulates the raw values for the mean.
    """

    __slots__ = ("bounds", "counts", "n", "sum", "min", "max")

    def __init__(self, bounds: Sequence[float]) -> None:
        edges = tuple(float(b) for b in bounds)
        if not edges:
            raise ConfigurationError("histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ConfigurationError(f"bounds must be strictly increasing: {edges}")
        self.bounds = edges
        self.counts: List[float] = [0] * (len(edges) + 1)
        self.n: float = 0
        self.sum: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float, weight: float = 1) -> None:
        if weight < 0:
            raise ConfigurationError(f"weight must be non-negative, got {weight}")
        index = bisect_left(self.bounds, value)
        self.counts[index] += weight
        self.n += weight
        self.sum += value * weight
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def record_many(self, values: Sequence[float]) -> None:
        """``for v in values: self.record(v)``, in one numpy pass.

        Bucket counts come from ``searchsorted(side="left")``, which is
        ``bisect_left``; ``sum`` is the same left fold
        (``np.add.accumulate``, never the pairwise ``np.sum``); ``min``
        and ``max`` are the first extreme element itself, so an int
        value stays an int (numpy scalars become Python ones).
        """
        n = len(values)
        if not n:
            return
        vals = np.asarray(values, dtype=np.float64)
        bucket = np.bincount(
            np.searchsorted(self.bounds, vals, side="left"),
            minlength=len(self.counts),
        )
        for index in np.flatnonzero(bucket).tolist():
            self.counts[index] += int(bucket[index])
        self.n += n
        self.sum = float(np.add.accumulate(np.concatenate(([self.sum], vals)))[-1])
        low = values[int(np.argmin(vals))]
        high = values[int(np.argmax(vals))]
        if isinstance(low, np.generic):
            low, high = low.item(), high.item()
        if self.min is None or low < self.min:
            self.min = low
        if self.max is None or high > self.max:
            self.max = high

    @property
    def mean(self) -> float:
        return self.sum / self.n if self.n else 0.0

    def quantile(self, q: float) -> float:
        """Upper edge of the bucket holding the ``q``-quantile sample.

        Bucket-resolution only — exact enough for reports; the
        overflow bucket reports the observed maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if not self.n:
            return 0.0
        target = q * self.n
        seen: float = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= target and count:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max if self.max is not None else self.bounds[-1]
        return self.max if self.max is not None else self.bounds[-1]

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ConfigurationError(
                "cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.n += other.n
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe payload (lists, not tuples, for round-trip equality)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "n": self.n,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Histogram":
        try:
            hist = cls(payload["bounds"])  # type: ignore[arg-type]
            counts = list(payload["counts"])  # type: ignore[arg-type]
            if len(counts) != len(hist.counts):
                raise ValueError(
                    f"expected {len(hist.counts)} buckets, got {len(counts)}"
                )
            hist.counts = counts
            hist.n = payload["n"]  # type: ignore[assignment]
            hist.sum = payload["sum"]  # type: ignore[assignment]
            hist.min = payload.get("min")  # type: ignore[assignment]
            hist.max = payload.get("max")  # type: ignore[assignment]
            return hist
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed histogram payload: {exc}") from exc

    def __repr__(self) -> str:
        return f"Histogram(n={self.n}, mean={self.mean:.3g})"


class Scope:
    """A dotted-prefix view onto a registry; producers hold these."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: "StatRegistry", prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix

    @property
    def path(self) -> str:
        return self._prefix.rstrip(".")

    def scope(self, name: str) -> "Scope":
        return Scope(self._registry, f"{self._prefix}{name}.")

    def add(self, name: str, amount: float = 1) -> None:
        self._registry.add(f"{self._prefix}{name}", amount)

    def get(self, name: str) -> float:
        return self._registry.get(f"{self._prefix}{name}")

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        return self._registry.histogram(f"{self._prefix}{name}", bounds)


class StatRegistry:
    """All of one run's (or one merged report's) counters + histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # --- producers ---

    def scope(self, name: str) -> Scope:
        if not name:
            raise ConfigurationError("scope name must be non-empty")
        return Scope(self, f"{name}.")

    def add(self, name: str, amount: float = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter increments must be non-negative, got {amount}"
            )
        self._counters[name] = self._counters.get(name, 0) + amount

    def set(self, name: str, value: float) -> None:
        """Overwrite a gauge-style value (end-of-run censuses)."""
        self._counters[name] = value

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        """Fetch-or-create; re-requesting must agree on bounds."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram(bounds)
            self._histograms[name] = hist
        elif hist.bounds != tuple(float(b) for b in bounds):
            raise ConfigurationError(
                f"histogram {name!r} already exists with different bounds"
            )
        return hist

    # --- consumers ---

    def get(self, name: str) -> float:
        return self._counters.get(name, 0)

    def counters(self, prefix: str = "") -> Dict[str, float]:
        """Counters under ``prefix``, sorted by name."""
        return {
            name: value
            for name, value in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def histograms(self, prefix: str = "") -> Dict[str, Histogram]:
        return {
            name: hist
            for name, hist in sorted(self._histograms.items())
            if name.startswith(prefix)
        }

    def prefixes(self, depth: int = 1) -> List[str]:
        """Distinct scope prefixes at ``depth`` dotted components."""
        seen = set()
        for name in list(self._counters) + list(self._histograms):
            parts = name.split(".")
            if len(parts) > depth:
                seen.add(".".join(parts[:depth]))
        return sorted(seen)

    # --- merge + serialization ---

    def merge(self, other: "StatRegistry") -> None:
        """Lossless add of another registry (per-worker aggregation)."""
        for name, value in other._counters.items():
            self._counters[name] = self._counters.get(name, 0) + value
        for name, hist in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = Histogram.from_dict(hist.to_dict())
            else:
                mine.merge(hist)

    def to_dict(self) -> Dict[str, object]:
        return {
            "counters": dict(sorted(self._counters.items())),
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "StatRegistry":
        try:
            registry = cls()
            for name, value in dict(payload.get("counters", {})).items():  # type: ignore[arg-type]
                registry._counters[str(name)] = value
            for name, hist in dict(payload.get("histograms", {})).items():  # type: ignore[arg-type]
                registry._histograms[str(name)] = Histogram.from_dict(hist)
            return registry
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed registry payload: {exc}") from exc

    @classmethod
    def merged(cls, payloads: Iterable[Mapping[str, object]]) -> "StatRegistry":
        """Merge serialized registries; feed in a deterministic order."""
        registry = cls()
        for payload in payloads:
            registry.merge(cls.from_dict(payload))
        return registry
