"""The four benchmark workloads and one timed pass of each.

Every workload is a grid of ``(config, benchmark)`` cells driven
through a public entry point of ``repro``:

* ``l2-heavy`` and ``l1-resident`` call ``run_benchmark`` serially in
  this process with pre-generated traces (warm: the prewarm prototypes
  and decoded traces are reused across passes).
* ``cold-grid`` starts a fresh child process per pass that runs
  ``run_matrix(..., jobs=2)`` with an empty trace cache.
* ``service-telemetry`` starts an in-thread job server per pass and
  drives it with one closed-loop ``ServiceClient``.

Heavy imports stay inside functions, so a set-up timer started before
the first call covers importing ``repro``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import uuid
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from perfbench import reference, tracing

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
#: Seconds a cold-grid child may take before it is killed.
CHILD_TIMEOUT_S = 120
#: Identical resubmissions after the first service job of a pass.
RESUBMITS = 4
SERVICE_JOBS = 2


@dataclass(frozen=True)
class Grid:
    """One workload: its kind, cells, and trace parameters."""

    kind: str  # "serial" | "cold" | "service"
    configs: Tuple[str, ...]
    benchmarks: Tuple[str, ...]  # () means the whole suite
    n_references: int
    warmup_fraction: float
    telemetry: bool = False

    def benchmark_names(self) -> List[str]:
        if self.benchmarks:
            return list(self.benchmarks)
        from repro.workloads.spec2k import suite_names

        return suite_names()

    def system_configs(self):
        from repro.sim import config as sim_config

        factories = {
            "nurapid": sim_config.nurapid_config,
            "sa-nuca": sim_config.sa_nuca_config,
            "dnuca": sim_config.dnuca_config,
            "base": sim_config.base_config,
        }
        return [factories[name]() for name in self.configs]

    def cells(self) -> List[Tuple[object, str]]:
        """``(config, benchmark)`` pairs, configs outer (``run_suite`` order)."""
        return [
            (config, benchmark)
            for config in self.system_configs()
            for benchmark in self.benchmark_names()
        ]


#: The grids; why each was chosen is in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Grid] = {
    "l2-heavy": Grid(
        kind="serial",
        configs=("nurapid", "sa-nuca", "dnuca"),
        benchmarks=("mcf", "applu", "art", "equake"),
        n_references=40_000,
        warmup_fraction=0.25,
    ),
    "l1-resident": Grid(
        kind="serial",
        configs=("nurapid", "base"),
        benchmarks=("mesa", "gcc", "wupwise"),
        n_references=150_000,
        warmup_fraction=0.25,
    ),
    "cold-grid": Grid(
        kind="cold",
        configs=("sa-nuca", "nurapid"),
        benchmarks=(),
        n_references=20_000,
        warmup_fraction=0.3,
    ),
    "service-telemetry": Grid(
        kind="service",
        configs=("nurapid", "dnuca"),
        benchmarks=("twolf", "galgel", "vpr", "bzip2"),
        n_references=30_000,
        warmup_fraction=0.4,
        telemetry=True,
    ),
}


@dataclass
class PassResult:
    """What one timed repetition of a workload measured."""

    wall_s: float
    refs: int
    #: Host seconds per cell, keyed by the cell's position in the grid.
    cell_s: Dict[int, float]
    #: Quiet-host rescale factor (:func:`tracing.rescale`) of each cell.
    cell_scale: Dict[int, float]
    #: ``config/benchmark`` -> canonical summary, one per cell checked.
    summaries: List[Tuple[str, Dict[str, object]]]
    peak_rss_kb: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    traced: bool = False
    spans: int = 0
    #: Workload-specific boundary timings (service.*, parallel.*).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Quiet-host rescale factor of the whole pass.
    scale: float = 1.0


# --- serial workloads -------------------------------------------------


@dataclass
class SerialState:
    configs: list
    traces: dict


def serial_setup(grid: Grid, seed: int) -> SerialState:
    """Import, generate every trace, build each config once."""
    import repro.sim.driver as driver
    import repro.workloads.tracegen as tracegen
    from repro.workloads.spec2k import get_benchmark

    traces = {
        name: tracegen.generate_trace(
            get_benchmark(name), grid.n_references, seed=seed
        )
        for name in grid.benchmark_names()
    }
    configs = grid.system_configs()
    for config in configs:
        driver.make_system(config)
    return SerialState(configs=configs, traces=traces)


def serial_pass(
    grid: Grid, state: SerialState, seed: int, traced: bool, spans_dir: Optional[str]
) -> PassResult:
    from repro.sim.driver import run_benchmark
    from repro.sim.results import run_result_to_dict
    from repro.telemetry.runtime import runtime_counters

    tr = tracing.install() if traced else None
    if tr is not None:
        tr.clear()
    run = tr.wrap(tracing.CELL, run_benchmark) if tr is not None else run_benchmark
    before = dict(runtime_counters())
    results = []
    cell_s: Dict[int, float] = {}
    cell_scale: Dict[int, float] = {}
    spin = tracing.spin_s()
    start = perf_counter()
    for config in state.configs:
        for benchmark in grid.benchmark_names():
            index = len(cell_s)
            if tr is not None:
                tr.cell = index
            t0 = perf_counter()
            try:
                result = run(
                    config,
                    benchmark,
                    n_references=grid.n_references,
                    seed=seed,
                    warmup_fraction=grid.warmup_fraction,
                    trace=state.traces[benchmark],
                )
            except Exception as exc:  # a cell that raises counts as failed
                print(f"perfbench: {config.name}/{benchmark} raised {exc!r}",
                      file=sys.stderr)
                result = None
            cell_s[index] = perf_counter() - t0
            after = tracing.spin_s()
            cell_scale[index] = tracing.rescale(spin, after)
            spin = after
            results.append((f"{config.name}/{benchmark}", result))
    wall = perf_counter() - start
    counters = tracing.counter_delta(before, dict(runtime_counters()))
    layers = tr.aggregate() if tr is not None else {}
    spans = tr.span_count() if tr is not None else 0
    if tr is not None:
        tr.write(os.path.join(spans_dir, f"pass-{uuid.uuid4().hex[:8]}.npz"))
        tracing.uninstall()
    return PassResult(
        wall_s=wall,
        refs=grid.n_references * len(results),
        cell_s=cell_s,
        cell_scale=cell_scale,
        summaries=[
            (key, reference.canonical(run_result_to_dict(result)))
            for key, result in results
            if result is not None
        ],
        counters=counters,
        layers=layers,
        traced=traced,
        spans=spans,
    )


# --- cold-grid ----------------------------------------------------------


def cold_child(
    seed: int, out_dir: str, trace_cache: str, traced: bool, spans_dir: Optional[str]
) -> Dict:
    """Body of one cold-grid child process (``run.py --role cold-child``)."""
    os.environ["REPRO_TRACE_CACHE"] = trace_cache
    import repro.sim.parallel as parallel
    from repro.experiments.common import Scale, run_matrix
    from repro.sim.results import run_result_to_dict

    imported_at = perf_counter()
    grid = WORKLOADS["cold-grid"]
    tr = tracing.install() if traced else None
    tracing.bind_recorded_cell(parallel, out_dir, traced, spans_dir)
    scale = Scale(
        name="perfbench",
        n_references=grid.n_references,
        warmup_fraction=grid.warmup_fraction,
        seed=seed,
    )
    start = perf_counter()
    runs = run_matrix(grid.system_configs(), grid.benchmark_names(), scale, jobs=2)
    grid_s = perf_counter() - start
    summaries = [
        (f"{config}/{benchmark}", reference.canonical(run_result_to_dict(result)))
        for config, row in runs.items()
        for benchmark, result in row.items()
    ]
    if tr is not None:
        tracing.write_record(out_dir, {
            "kind": "process", "layers": tr.aggregate(), "spans": tr.span_count(),
        })
        if spans_dir is not None:
            tr.write(os.path.join(spans_dir, f"cold-child-{os.getpid()}.npz"))
    return {
        "imported_at": imported_at,
        "grid_s": grid_s,
        "summaries": summaries,
        "peak_rss_kb": tracing.peak_rss_kb(),
    }


def _worker_records(out_dir: str):
    records = tracing.read_records(out_dir)
    cells = [r for r in records if r["kind"] == "cell"]
    peaks: Dict[int, int] = {}
    for record in cells:
        peaks[record["pid"]] = max(peaks.get(record["pid"], 0), record["peak_rss_kb"])
    counters: Dict[str, float] = {}
    for record in cells:
        for key, value in record["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    layers = tracing.merge_layers([r.get("layers", {}) for r in records])
    spans = sum(r.get("spans", 0) for r in records)
    return cells, sum(peaks.values()), counters, layers, spans


def cold_pass(seed: int, scratch: str, traced: bool, spans_dir: Optional[str]) -> PassResult:
    """Spawn one child, time it from spawn to exit, read its records."""
    grid = WORKLOADS["cold-grid"]
    out_dir = tempfile.mkdtemp(prefix="cold-records-", dir=scratch)
    trace_cache = tempfile.mkdtemp(prefix="cold-traces-", dir=scratch)
    cmd = [sys.executable, RUN_PY, "--role", "cold-child", "--seed", str(seed),
           "--out", out_dir, "--cache", trace_cache, "--trace", "1" if traced else "0"]
    if spans_dir is not None:
        cmd += ["--spans", spans_dir]
    try:
        spin = tracing.spin_s()
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = perf_counter() - start
        scale = tracing.rescale(spin, tracing.spin_s())
        n_cells = len(grid.cells())
        if proc.returncode != 0:
            print(f"perfbench: cold-grid child exited {proc.returncode}", file=sys.stderr)
            return PassResult(wall_s=wall, refs=0, cell_s={}, cell_scale={}, summaries=[],
                              traced=traced, scale=scale)
        child = json.loads(out.decode().strip().splitlines()[-1])
        cells, worker_peak, counters, layers, spans = _worker_records(out_dir)
        return PassResult(
            wall_s=wall,
            refs=grid.n_references * n_cells,
            cell_s={r["index"]: r["cell_s"] for r in cells},
            cell_scale={r["index"]: scale for r in cells},
            summaries=[tuple(item) for item in child["summaries"]],
            peak_rss_kb=child["peak_rss_kb"] + worker_peak,
            counters=counters,
            layers=layers,
            traced=traced,
            spans=spans,
            scale=scale,
            extra={
                "parallel.import_s": child["imported_at"] - start,
                "parallel.grid_s": child["grid_s"],
                "parallel.cells_per_s": n_cells / child["grid_s"],
            },
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        shutil.rmtree(trace_cache, ignore_errors=True)


# --- service-telemetry -------------------------------------------------


def grid_request(seed: int):
    from repro.service import GridRequest, config_spec

    grid = WORKLOADS["service-telemetry"]
    return GridRequest(
        configs=[config_spec(kind) for kind in grid.configs],
        benchmarks=list(grid.benchmarks),
        client="perfbench",
        n_references=grid.n_references,
        seed=seed,
        warmup_fraction=grid.warmup_fraction,
        telemetry=grid.telemetry,
    )


def _stop_server(bg) -> None:
    """Stop the server and wait for every pool worker to exit."""
    bg.stop()
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)


def service_setup(scratch: str, start: float) -> float:
    """Fresh-process set-up: import, start a server, wait until healthy.

    Returns seconds from ``start`` (taken before any import) until the
    server answers health checks.
    """
    from repro.service import ServerConfig, ServiceClient, serve_in_thread

    store = tempfile.mkdtemp(prefix="svc-setup-", dir=scratch)
    bg = serve_in_thread(ServerConfig(jobs=SERVICE_JOBS, store_dir=store))
    try:
        ServiceClient(bg.url).wait_healthy()
        return perf_counter() - start
    finally:
        _stop_server(bg)
        shutil.rmtree(store, ignore_errors=True)


def _cell_summaries(status) -> Tuple[List[Tuple[str, Dict]], List[int]]:
    """Summaries of a job's successful cells, and their telemetry sizes."""
    summaries, telemetry_bytes = [], []
    for cell in status["cells"]:
        payload = cell.get("payload") or {}
        result = payload.get("result")
        if cell["status"] not in ("ok", "hit") or result is None:
            print(f"perfbench: service cell {cell['index']} is {cell['status']}",
                  file=sys.stderr)
            continue
        summaries.append((f"{cell['config']}/{cell['benchmark']}", reference.canonical(result)))
        telemetry_bytes.append(len(json.dumps(result.get("telemetry"))))
    return summaries, telemetry_bytes


def service_pass(seed: int, scratch: str, traced: bool, spans_dir: Optional[str]) -> PassResult:
    import repro.service.server as server
    from repro.service import ServerConfig, ServiceClient, serve_in_thread

    grid = WORKLOADS["service-telemetry"]
    request = grid_request(seed)
    store = tempfile.mkdtemp(prefix="svc-store-", dir=scratch)
    out_dir = tempfile.mkdtemp(prefix="svc-records-", dir=scratch)
    original = server.execute_cell
    tracing.bind_recorded_cell(server, out_dir, traced, spans_dir)
    tr = tracing.install() if traced else None
    if tr is not None:
        tr.clear()
    tracing.reset_peak_rss()
    spin = tracing.spin_s()
    t0 = perf_counter()
    bg = serve_in_thread(ServerConfig(jobs=SERVICE_JOBS, store_dir=store))
    try:
        client = ServiceClient(bg.url)
        client.wait_healthy()
        startup = perf_counter() - t0
        start = perf_counter()
        job = client.submit(request)
        submit_s = perf_counter() - start
        first_cell = None
        for event in client.events(job["job"]):
            kind = event.get("event")
            if kind == "completed" and first_cell is None:
                first_cell = perf_counter() - start
            if kind == "done":
                break
        summaries, telemetry_bytes = _cell_summaries(client.job(job["job"]))
        hit_s = []
        for _ in range(RESUBMITS):
            t_hit = perf_counter()
            status = client.wait(client.submit(request)["job"])
            hit_s.append(perf_counter() - t_hit)
            summaries += _cell_summaries(status)[0]
        wall = perf_counter() - start
        scale = tracing.rescale(spin, tracing.spin_s())
        stats = client.stats()
        worker_peak = 0
        for child in multiprocessing.active_children():
            worker_peak += tracing.peak_rss_kb(child.pid)
    finally:
        _stop_server(bg)
        server.execute_cell = original
        if tr is not None:
            tracing.uninstall()
        shutil.rmtree(store, ignore_errors=True)
    cells, _, counters, layers, spans = _worker_records(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    if tr is not None:
        layers = tracing.merge_layers([layers, tr.aggregate()])
        spans += tr.span_count()
        tr.write(os.path.join(spans_dir, f"server-{uuid.uuid4().hex[:8]}.npz"))
    return PassResult(
        wall_s=wall,
        refs=grid.n_references * len(cells),
        cell_s={r["index"]: r["cell_s"] for r in cells},
        cell_scale={r["index"]: scale for r in cells},
        summaries=summaries,
        peak_rss_kb=tracing.peak_rss_kb() + worker_peak,
        counters=counters,
        layers=layers,
        traced=traced,
        spans=spans,
        scale=scale,
        extra={
            "service.startup_s": startup,
            "service.submit_s": submit_s,
            "service.first_cell_s": first_cell or 0.0,
            "service.hit_job_s": statistics.median(hit_s),
            "service.memo_hit_rate": float(stats["memo_hit_rate"]),
            "service.store_entries": float(stats["store_entries"]),
            "telemetry.payload_kb_per_cell": (
                sum(telemetry_bytes) / len(telemetry_bytes) / 1024.0
                if telemetry_bytes else 0.0
            ),
        },
    )

