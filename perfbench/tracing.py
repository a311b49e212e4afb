"""Outside-in layer tracing for the benchmark.

Nothing here edits the simulator.  :func:`install` rebinds a few public
entry points (``make_system``, ``generate_trace``, ``TraceCache.ensure``,
``ensure_decoded``) in every loaded module that holds them, and every
system ``make_system`` returns gets instance-level wrappers over each
lower level's ``access`` and ``fill``.  The replay kernels look those
methods up on the instance, so unchanged ``run_benchmark`` calls go
through the wrappers, whichever kernel runs.

Spans (name, start, end, parent, cell id) are kept per thread in flat
arrays and written out as ``.npz`` when a traced process finishes.  A
layer's self time is its span's duration minus the part covered by its
child spans.

Worker processes (the ``run_matrix`` pool and the service's spawn
pool) run cells through :func:`recorded_cell`, which the harness binds
in place of ``execute_cell``.  It writes one small JSON record per
cell: host seconds, runtime-counter deltas, peak RSS, and, when traced,
that cell's layer aggregates.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import uuid
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Span names of the layers the benchmark reports.
CELL = "cell"
BUILD = "sim.build"
TRACEGEN = "workloads.tracegen"
TRACE_ENSURE = "workloads.trace_ensure"
#: Cache-model layers, named after the package of the level's class.
L2_LAYERS = ("nurapid", "nuca", "caches")


class _Buffer:
    """One thread's spans.

    ``records[i]`` is ``(start, end, name id, parent index, cell id)``;
    a slot holds None while its span is open.
    """

    __slots__ = ("records", "stack")

    def __init__(self) -> None:
        self.records: List[Optional[tuple]] = []
        self.stack: List[int] = []


class Tracer:
    """In-memory span recorder, safe to use from several threads."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self.cell = -1
        self.refs_generated = 0

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def _new_buffer(self) -> _Buffer:
        buf = _Buffer()
        with self._lock:
            self._buffers.append(buf)
        self._local.buf = buf
        return buf

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call."""
        nid = self.name_id(name)
        tracer = self
        local = self._local

        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = tracer._new_buffer()
            records = buf.records
            stack = buf.stack
            idx = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                records[idx] = (start, perf_counter(), nid, parent, tracer.cell)
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def span_count(self) -> int:
        return sum(len(buf.records) for buf in self._buffers)

    def clear(self) -> None:
        with self._lock:
            for buf in self._buffers:
                buf.records.clear()
            self.refs_generated = 0

    def _arrays(self):
        """All spans as flat arrays with global parent indices.

        Call when no span is open: an open span has no end yet.
        """
        import numpy as np

        columns = [[], [], [], [], []]
        offset = 0
        for buf in list(self._buffers):
            rows = buf.records
            for column, values in zip(columns, zip(*rows)):
                column.append(np.array(values))
            if rows:
                columns[3][-1] = np.where(
                    columns[3][-1] >= 0, columns[3][-1] + offset, -1
                )
            offset += len(rows)
        names = ("start", "end", "name", "parent", "cell")
        dtypes = (np.float64, np.float64, np.int32, np.int64, np.int64)
        return {
            name: np.concatenate(column).astype(dtype) if column else np.zeros(0, dtype)
            for name, column, dtype in zip(names, columns, dtypes)
        }

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        import numpy as np

        spans = self._arrays()
        dur = spans["end"] - spans["start"]
        parent = spans["parent"].astype(np.int64)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        out: Dict[str, Dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            mask = spans["name"] == nid
            calls = int(mask.sum())
            if calls:
                out[name] = {
                    "calls": calls,
                    "total_s": float(dur[mask].sum()),
                    "self_s": float(self_time[mask].sum()),
                }
        if TRACEGEN in out:
            out[TRACEGEN]["refs"] = self.refs_generated
        return out

    def write(self, path: str) -> None:
        """Write every span to ``path`` (``.npz``)."""
        import numpy as np

        spans = self._arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), **spans)


_TRACER: Optional[Tracer] = None
_PATCHES: List[tuple] = []
#: The real ``execute_cell`` when :func:`bind_recorded_cell` replaced
#: it in this process (forked workers inherit it); None in spawned
#: workers, whose ``repro.sim.parallel`` is untouched.
_EXECUTE_CELL: Optional[Callable] = None


def _rebind(name: str, original: Callable, replacement: Callable) -> None:
    """Point every loaded module's binding of ``original`` at ``replacement``."""
    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("repro"):
            continue
        if getattr(module, name, None) is original:
            setattr(module, name, replacement)
            _PATCHES.append((module, name, original))


def _layer_of(level) -> str:
    """``nurapid`` / ``nuca`` / ``caches``: the package of the level's class."""
    parts = type(level).__module__.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def _wrap_levels(tr: Tracer, system) -> None:
    for level in system.hierarchy.lower:
        if "access" in vars(level):
            continue
        layer = _layer_of(level)
        level.access = tr.wrap(f"{layer}.access", level.access)
        level.fill = tr.wrap(f"{layer}.fill", level.fill)


def install() -> Tracer:
    """Start tracing in this process (idempotent)."""
    global _TRACER
    if _TRACER is not None:
        return _TRACER
    import repro.sim.driver as driver
    import repro.workloads.tracegen as tracegen
    import repro.workloads.transport as transport

    tr = Tracer()
    make_system = driver.make_system
    traced_build = tr.wrap(BUILD, make_system)

    def build_and_wrap(*args, **kwargs):
        system = traced_build(*args, **kwargs)
        _wrap_levels(tr, system)
        return system

    generate_trace = tracegen.generate_trace
    traced_gen = tr.wrap(TRACEGEN, generate_trace)

    def generate_and_count(profile, n_references, *args, **kwargs):
        tr.refs_generated += n_references
        return traced_gen(profile, n_references, *args, **kwargs)

    _rebind("make_system", make_system, build_and_wrap)
    _rebind("generate_trace", generate_trace, generate_and_count)
    _rebind("ensure_decoded", transport.ensure_decoded,
            tr.wrap(TRACE_ENSURE, transport.ensure_decoded))
    ensure = tracegen.TraceCache.ensure
    tracegen.TraceCache.ensure = tr.wrap(TRACE_ENSURE, ensure)
    _PATCHES.append((tracegen.TraceCache, "ensure", ensure))
    _TRACER = tr
    return tr


def uninstall() -> None:
    """Undo :func:`install`."""
    global _TRACER
    while _PATCHES:
        owner, name, original = _PATCHES.pop()
        setattr(owner, name, original)
    _TRACER = None


#: Seconds :func:`spin_s` takes on a quiet 2-vCPU Xeon VM (Python 3.11).
QUIET_SPIN_S = 0.0055


def spin_s() -> float:
    """Median of three timings of a fixed pure-Python loop.

    Other tenants slow the shared host by up to 3x in spells lasting
    seconds to minutes.  The benchmark brackets each timed unit with
    this spin and rescales the unit's seconds by ``QUIET_SPIN_S /
    spin``, which reads as the seconds the unit would take on a quiet
    host.
    """
    times = []
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(perf_counter() - start)
    return sorted(times)[1]


def rescale(before: float, after: float) -> float:
    """Factor turning host seconds measured between two spins into quiet-host seconds."""
    return 2 * QUIET_SPIN_S / (before + after)


def peak_rss_kb(pid: object = "self") -> int:
    """A process's peak resident set (VmHWM) in KiB; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_peak_rss() -> None:
    """Restart the VmHWM high-water mark, where the kernel allows it."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _counters() -> Dict[str, float]:
    from repro.telemetry.runtime import runtime_counters

    return dict(runtime_counters())


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {
        key: after[key] - before.get(key, 0.0)
        for key in after
        if after[key] != before.get(key, 0.0)
    }


def recorded_cell(out_dir: str, traced: bool, spans_dir: Optional[str], task):
    """``execute_cell`` plus a per-cell record file in ``out_dir``.

    Bound with :func:`functools.partial` in place of ``execute_cell``
    so worker processes (forked or spawned) pick it up by import path.
    The cell's payload is returned untouched.
    """
    from repro.sim import parallel

    execute_cell = _EXECUTE_CELL or parallel.execute_cell
    tr = install() if traced else None
    if tr is not None:
        tr.clear()
        tr.cell = task.index
    before = _counters()
    start = perf_counter()
    if tr is not None:
        payload = tr.wrap(CELL, execute_cell)(task)
    else:
        payload = execute_cell(task)
    cell_s = perf_counter() - start
    record = {
        "kind": "cell",
        "pid": os.getpid(),
        "index": task.index,
        "cell_s": cell_s,
        "counters": counter_delta(before, _counters()),
        "peak_rss_kb": peak_rss_kb(),
    }
    if tr is not None:
        record["layers"] = tr.aggregate()
        record["spans"] = tr.span_count()
        if spans_dir is not None:
            tr.write(os.path.join(
                spans_dir, f"worker-{os.getpid()}-cell{task.index}-{uuid.uuid4().hex[:6]}.npz"
            ))
    write_record(out_dir, record)
    return payload


def bind_recorded_cell(
    module, out_dir: str, traced: bool, spans_dir: Optional[str]
) -> None:
    """Make ``module.execute_cell`` run through :func:`recorded_cell`."""
    global _EXECUTE_CELL
    from repro.sim import parallel

    _EXECUTE_CELL = parallel.execute_cell
    module.execute_cell = functools.partial(recorded_cell, out_dir, traced, spans_dir)


def write_record(out_dir: str, record: Dict[str, object]) -> None:
    path = os.path.join(out_dir, f"{record['kind']}-{os.getpid()}-{uuid.uuid4().hex}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(record, handle)
    os.replace(tmp, path)


def read_records(out_dir: str) -> List[Dict[str, object]]:
    records = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as handle:
                records.append(json.load(handle))
    return records


def merge_layers(parts: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Sum per-name aggregates from several processes or passes."""
    merged: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for name, agg in part.items():
            slot = merged.setdefault(name, {})
            for key, value in agg.items():
                slot[key] = slot.get(key, 0) + value
    return merged
