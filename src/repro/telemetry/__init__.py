"""repro.telemetry — tracing, metrics, and profiling for the simulator.

The paper's headline claims are distributional (per-d-group access
breakdowns, energy split across d-groups, promotion/demotion churn),
but flat end-of-run counters can't show *why* a configuration wins.
This package is the unified instrumentation layer:

* :mod:`~repro.telemetry.registry` — hierarchical stat registry with
  named scopes (``l2.dg0.hits``), int-exact counters, and fixed-bucket
  histograms (hit latency, reuse distance, MSHR occupancy), all with
  lossless ``merge()`` so per-worker stats aggregate bit-identically
  to a serial run;
* :mod:`~repro.telemetry.trace` — sampled, bounded JSONL event streams
  (placement / demotion / promotion / writeback / fault-retire) with a
  ring-buffer mode and atomic flush;
* :mod:`~repro.telemetry.profile` — wall-clock phase timers so
  ``repro.bench`` can attribute *simulator* time;
* :mod:`~repro.telemetry.report` — the merged per-d-group
  latency/energy/occupancy report (``python -m repro.telemetry``).

Telemetry is **opt-in**: pass a :class:`TelemetryConfig` to
``run_benchmark`` / ``run_suite`` / ``Sweep`` / ``run_matrix``.  With
the default ``None``, the only residue on the hot path is a handful of
``is not None`` guards — the null sink — whose overhead the perf
baseline (``python -m repro.bench --max-regression``) polices.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.telemetry.profile import NullProfiler, PhaseProfiler, profiler_or_null
from repro.telemetry.registry import (
    LATENCY_BOUNDS,
    REUSE_BOUNDS,
    Histogram,
    Scope,
    StatRegistry,
    occupancy_bounds,
)
from repro.telemetry.runtime import (
    reset_runtime_registry,
    runtime_counters,
    runtime_registry,
)
from repro.telemetry.trace import EventTracer, read_trace, trace_summary

__all__ = [
    "CacheTelemetry",
    "EventTracer",
    "Histogram",
    "LATENCY_BOUNDS",
    "NullProfiler",
    "PhaseProfiler",
    "REUSE_BOUNDS",
    "Scope",
    "StatRegistry",
    "Telemetry",
    "TelemetryConfig",
    "occupancy_bounds",
    "profiler_or_null",
    "read_trace",
    "reset_runtime_registry",
    "runtime_counters",
    "runtime_registry",
    "telemetry_from_env",
    "trace_summary",
]


@dataclass(frozen=True)
class TelemetryConfig:
    """What to collect; frozen and picklable so it ships to workers.

    ``enabled=False`` (or passing ``None`` where a config is accepted)
    is the null sink: no registry, no tracer, no profiler are created
    and instrumented code sees ``telemetry is None``.
    """

    enabled: bool = True
    #: Collect structural events (placement/demotion/promotion/...).
    events: bool = False
    #: Flush collected events as JSONL under this directory (implies
    #: ``events``); one file per run, named from config/benchmark/seed.
    trace_dir: Optional[str] = None
    #: Keep every Nth event.
    trace_sample: int = 1
    #: Maximum kept events (None: unbounded — test-sized runs only).
    trace_limit: Optional[int] = 100_000
    #: True: the *last* ``trace_limit`` events survive instead of the first.
    trace_ring: bool = False
    #: Wall-clock phase timers (non-deterministic; reports exclude it
    #: by default so merged reports stay byte-identical).
    profile: bool = False

    def __post_init__(self) -> None:
        if self.trace_sample < 1:
            raise ConfigurationError(
                f"trace_sample must be >= 1, got {self.trace_sample}"
            )
        if self.trace_limit is not None and self.trace_limit < 1:
            raise ConfigurationError(
                f"trace_limit must be >= 1, got {self.trace_limit}"
            )

    @property
    def events_enabled(self) -> bool:
        return self.events or self.trace_dir is not None

    def fingerprint(self) -> Dict[str, object]:
        """Stable identity for cache keys and sweep signatures."""
        return asdict(self)


def telemetry_from_env(value: Optional[str]) -> Optional[TelemetryConfig]:
    """Parse the ``REPRO_TELEMETRY`` convention.

    Empty/``0``/``off`` → None (null sink); ``1``/``on``/``true`` →
    histograms only; any other value is a directory to flush JSONL
    traces into.
    """
    if value is None:
        return None
    value = value.strip()
    if not value or value.lower() in ("0", "off", "false"):
        return None
    if value.lower() in ("1", "on", "true"):
        return TelemetryConfig()
    return TelemetryConfig(trace_dir=value, events=True)


class CacheTelemetry:
    """One cache's telemetry client: hot-path hooks only.

    Caches hold ``self.telemetry = None`` by default and guard every
    call site with ``is not None`` — attaching one of these is what
    turns collection on.  The client pre-resolves its histograms and
    its counters' full registry keys, so a per-access call is a few
    dict operations and the histogram records; a counter's key still
    appears at its first increment.  :meth:`on_access_stream` takes a
    whole replay's references at once.
    """

    __slots__ = (
        "name",
        "scope",
        "tracer",
        "hit_latency",
        "reuse",
        "_last_seen",
        "_accesses",
        "_counts",
        "_prefix",
        "_hits_key",
        "_misses_key",
        "_dg_hits_keys",
    )

    def __init__(self, name: str, scope: Scope, tracer: Optional[EventTracer]) -> None:
        self.name = name
        self.scope = scope
        self.tracer = tracer
        self.hit_latency = scope.histogram("hit_latency", LATENCY_BOUNDS)
        self.reuse = scope.histogram("reuse_distance", REUSE_BOUNDS)
        self._last_seen: Dict[int, int] = {}
        self._accesses = 0
        # The registry's counter dict and this scope's keys: what
        # Scope.add would build per call (increments are all +1 or
        # positive totals, so its negative check is moot).
        self._counts = scope._registry._counters
        self._prefix = scope._prefix
        self._hits_key = self._prefix + "hits"
        self._misses_key = self._prefix + "misses"
        self._dg_hits_keys: Dict[int, str] = {}

    def on_access(
        self,
        block_addr: int,
        hit: bool,
        dgroup: Optional[int],
        latency: float,
    ) -> None:
        """Record one access: reuse distance, latency, per-d-group hit."""
        self._accesses += 1
        last = self._last_seen.get(block_addr)
        if last is not None:
            self.reuse.record(self._accesses - last)
        self._last_seen[block_addr] = self._accesses
        if hit:
            self.hit_latency.record(latency)
            if dgroup is None:
                key = self._hits_key
            else:
                key = self._dg_hits_keys.get(dgroup)
                if key is None:
                    key = f"{self._prefix}dg{dgroup}.hits"
                    self._dg_hits_keys[dgroup] = key
        else:
            key = self._misses_key
        counts = self._counts
        counts[key] = counts.get(key, 0) + 1

    def on_access_stream(self, block_addrs, hits, latency: float) -> None:
        """``on_access(b, h, None, latency)`` per element, in order.

        ``block_addrs`` and ``hits`` are equal-length arrays.  A stable
        argsort by block gives each reference its previous occurrence
        in the stream; a block's first occurrence falls back to
        ``_last_seen``.  The reuse distances and the hits' latency go
        through :meth:`Histogram.record_many`; ``_last_seen`` ends with
        the same items in the same insertion order (new blocks in
        first-occurrence order).
        """
        n = len(block_addrs)
        if not n:
            return
        blocks = np.asarray(block_addrs)
        base = self._accesses
        # Access number of stream position p is base + 1 + p.
        order = np.argsort(blocks, kind="stable")
        sorted_blocks = blocks[order]
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        np.not_equal(sorted_blocks[1:], sorted_blocks[:-1], out=starts[1:])
        first = np.flatnonzero(starts)
        last = np.append(first[1:], n) - 1
        # The sort is stable, so within a block's run the previous
        # entry is its previous occurrence; a run's first entry takes
        # _last_seen instead (0, "never seen": access numbers start at 1).
        prev_sorted = np.empty(n, dtype=np.int64)
        prev_sorted[1:] = order[:-1] + (base + 1)
        get = self._last_seen.get
        prev_sorted[first] = [get(b, 0) for b in sorted_blocks[first].tolist()]
        prev = np.empty(n, dtype=np.int64)
        prev[order] = prev_sorted
        seen = prev > 0
        now = np.arange(base + 1, base + 1 + n, dtype=np.int64)
        self.reuse.record_many(now[seen] - prev[seen])
        # np.full keeps latency's int/float kind for min/max.
        n_hits = int(np.count_nonzero(hits))
        self.hit_latency.record_many(np.full(n_hits, latency))

        # New counter keys appear in the order their first increment
        # would have created them.
        tallies = [(self._hits_key, n_hits), (self._misses_key, n - n_hits)]
        if not hits[0]:
            tallies.reverse()
        counts = self._counts
        for key, amount in tallies:
            if amount:
                counts[key] = counts.get(key, 0) + amount

        by_first = np.argsort(order[first])
        self._last_seen.update(
            zip(
                sorted_blocks[first[by_first]].tolist(),
                (order[last[by_first]] + (base + 1)).tolist(),
            )
        )
        self._accesses = base + n

    def event(self, kind: str, **fields: object) -> None:
        """Offer a structural event to the run's tracer (if any)."""
        if self.tracer is not None:
            self.tracer.emit(kind, cache=self.name, **fields)


class Telemetry:
    """One run's collection session: registry + tracer + profiler."""

    def __init__(self, config: TelemetryConfig, run_id: str) -> None:
        if not config.enabled:
            raise ConfigurationError(
                "Telemetry session for a disabled config; pass None instead"
            )
        self.config = config
        self.run_id = run_id
        self.registry = StatRegistry()
        self.tracer: Optional[EventTracer] = (
            EventTracer(
                sample=config.trace_sample,
                limit=config.trace_limit,
                ring=config.trace_ring,
            )
            if config.events_enabled
            else None
        )
        self.profiler = profiler_or_null(config.profile)

    def cache_client(self, name: str) -> CacheTelemetry:
        return CacheTelemetry(name, self.registry.scope(name), self.tracer)

    def histogram(self, name: str, bounds: Tuple[float, ...]) -> Histogram:
        return self.registry.histogram(name, bounds)

    # --- end-of-run captures (deterministic gauges) ---

    def capture_counters(self, name: str, counts: Dict[str, float]) -> None:
        """Adopt a cache's flat counters under its scope."""
        for key, value in sorted(counts.items()):
            self.registry.set(f"{name}.{key}", value)

    def capture_energy(self, name: str, book) -> None:
        """Per-operation energy totals (nJ) from an EnergyBook."""
        prefix = f"{name}."
        for op, nj in sorted(book.breakdown_nj().items()):
            label = op[len(prefix):] if op.startswith(prefix) else op
            self.registry.set(f"{name}.energy_nj.{label}", nj)

    def capture_gauge(self, name: str, value: float) -> None:
        self.registry.set(name, value)

    # --- payload ---

    def trace_filename(self) -> str:
        return self.run_id.replace("/", "__").replace(" ", "_") + ".jsonl"

    def flush_trace(self) -> Optional[str]:
        """Write the JSONL trace if a trace_dir was configured."""
        if self.tracer is None or self.config.trace_dir is None:
            return None
        path = os.path.join(self.config.trace_dir, self.trace_filename())
        return self.tracer.flush(path)

    def payload(self, trace_path: Optional[str] = None) -> Dict[str, object]:
        """The run's JSON-safe telemetry record.

        The ``registry`` and ``trace`` sections are deterministic
        functions of the simulation; ``profile`` (wall-clock) is only
        present when profiling was requested.
        """
        record: Dict[str, object] = {
            "run": self.run_id,
            "registry": self.registry.to_dict(),
        }
        if self.tracer is not None:
            trace = self.tracer.summary()
            if trace_path is not None:
                trace["path"] = trace_path
            record["trace"] = trace
        if self.config.profile:
            record["profile"] = self.profiler.summary()
        return record
