"""Benchmark harness for the NuRAPID reproduction (``repro``).

Run from the root of a checkout::

    python3 perfbench/run.py --workload l2-heavy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload l2-heavy --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --seconds 20

``--trace 0`` measures the end-to-end metrics with no tracing in the
timed body; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics plus the tracing overhead.  The metric
names, units and directions are read from ``BENCHMARK.json``.  The last
line of standard output is one JSON object; the exit code is non-zero
when any cell's result differs from the legacy-engine reference.
``--workload all`` runs every workload in its own process and prints a
table of every metric by name and unit.

See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH_ROOT = os.path.join(ROOT, ".perfbench_tmp")
SPANS_ROOT = os.path.join(ROOT, ".perfbench_out")
#: Fresh-process set-up samples per run (serial and service workloads).
SETUP_SAMPLES = 5
#: Environment knobs of ``repro`` that would change what a run does.
REPRO_ENV = ("REPRO_ENGINE", "REPRO_JOBS", "REPRO_TELEMETRY",
             "REPRO_TRACE_CACHE", "REPRO_PREWARM_CACHE", "REPRO_CHAOS_DIR")


def _bootstrap() -> None:
    """Put the checkout's sources on the path, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    for name in REPRO_ENV:
        os.environ.pop(name, None)


def _stop_helpers() -> None:
    """Reap every process this one started, before it exits.

    Pool workers still alive are joined (killed after 10 s).  The
    service's spawn-context pool also starts multiprocessing's resource
    tracker, which would otherwise end only after this process and
    linger as an orphan; it is stopped and waited for here.
    """
    import gc
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    gc.collect()  # finalize dead pools' semaphores while the tracker runs
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def _probe(workload: str, seed: int) -> float:
    """One fresh-process set-up sample, in quiet-host seconds."""
    from perfbench import tracing

    before = tracing.spin_s()
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--role", "setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, check=True, timeout=120,
    ).stdout
    setup_s = json.loads(out.decode().strip().splitlines()[-1])["setup_s"]
    return setup_s * tracing.rescale(before, tracing.spin_s())


# --- metrics ------------------------------------------------------------


def _cell_medians(passes):
    """Each cell's median quiet-host seconds over the passes."""
    samples = {}
    for p in passes:
        for index, seconds in p.cell_s.items():
            samples.setdefault(index, []).append(seconds * p.cell_scale[index])
    return {index: statistics.median(values) for index, values in samples.items()}


def _repetition_s(kind, passes):
    """Quiet-host seconds of one repetition: the sum of each cell's
    median for a serial grid, the median whole pass otherwise."""
    if kind == "serial":
        return sum(_cell_medians(passes).values())
    return _median([p.wall_s * p.scale for p in passes])


def _end_to_end(kind, passes, setup_samples, body_peak_kb):
    """The end-to-end metrics of one run.

    Host times are quiet-host seconds (see :func:`tracing.spin_s`),
    as medians over the run: per cell for the serial grids, and per
    whole pass where cells overlap on two workers (cold-grid, service).
    """
    cells = sorted(_cell_medians(passes).values())
    wall = _repetition_s(kind, passes)
    refs = max(p.refs for p in passes)
    peak_kb = body_peak_kb if kind == "serial" else _median([p.peak_rss_kb for p in passes])
    return {
        "setup_s": _median(setup_samples),
        "wall_s": wall,
        "refs_per_s": refs / wall,
        "cell_s_p50": _median(cells),
        "cell_s_p90": _p90(cells),
        "peak_rss_mb": peak_kb * 1024 / 1e6,
    }



def _layer_metrics(passes, setup_layers):
    """Span- and counter-derived metrics of each traced pass, medians."""
    from perfbench import tracing

    rows = []
    for p in passes:
        layers = tracing.merge_layers([setup_layers, p.layers])
        get = lambda name, key: layers.get(name, {}).get(key, 0.0)  # noqa: E731
        cell_total = get(tracing.CELL, "total_s")
        share = (lambda s: s / cell_total) if cell_total else (lambda s: 0.0)
        tracegen_s = get(tracing.TRACEGEN, "total_s")
        replay_self = get(tracing.CELL, "self_s")
        row = {
            "workloads.tracegen_s": tracegen_s,
            "workloads.tracegen_refs_per_s": (
                get(tracing.TRACEGEN, "refs") / tracegen_s if tracegen_s else 0.0
            ),
            "workloads.trace_ensure_s": get(tracing.TRACE_ENSURE, "total_s"),
            "sim.build_s": get(tracing.BUILD, "total_s"),
            "sim.build_calls": get(tracing.BUILD, "calls"),
            "sim.replay_self_s": replay_self,
            "sim.replay_self_us_per_ref": replay_self / p.refs * 1e6 if p.refs else 0.0,
            "sim.replay_share": share(replay_self),
            "trace.spans": float(p.spans),
        }
        for layer in tracing.L2_LAYERS:
            own = 0.0
            for op in ("access", "fill"):
                calls = get(f"{layer}.{op}", "calls")
                self_s = get(f"{layer}.{op}", "self_s")
                own += self_s
                row[f"{layer}.{op}_calls"] = calls
                row[f"{layer}.{op}_us_per_call"] = self_s / calls * 1e6 if calls else 0.0
            row[f"{layer}.share"] = share(own)
        counters = p.counters
        vector = counters.get("vectorized.refs_vector", 0.0)
        l2_vector = counters.get("vectorized.l2_refs_vector", 0.0)
        refs = float(p.refs) or 1.0
        row.update({
            "vectorized.refs_vector_share": vector / refs,
            "vectorized.l2_refs_vector_share": l2_vector / refs,
            "vectorized.refs_scalar_share": (refs - vector - l2_vector) / refs,
            "vectorized.fallbacks": counters.get("vectorized.fallbacks", 0.0),
            "vectorized.l2_refs_vector": l2_vector,
        })
        rows.append(row)
    return {key: _median([row[key] for row in rows]) for key in rows[0]}


def _model_metrics(summaries):
    """Simulated-time values of one pass's cells (deterministic)."""
    unique = dict(summaries)
    ipcs, accesses, misses, dg0, energy, instructions = [], 0, 0, [], 0.0, 0
    for summary in unique.values():
        ipcs.append(summary["instructions"] / summary["cycles"])
        accesses += summary["l2_accesses"]
        misses += summary["l2_misses"]
        if "0" in summary["dgroup_fractions"]:
            dg0.append(summary["dgroup_fractions"]["0"])
        energy += summary["l1_energy_nj"] + summary["lower_energy_nj"] + summary["core_energy_nj"]
        instructions += summary["instructions"]
    return {
        "model.ipc_geomean": statistics.geometric_mean(ipcs),
        "model.l2_miss_ratio": misses / accesses if accesses else 0.0,
        "model.dg0_fraction": statistics.fmean(dg0) if dg0 else 0.0,
        "model.energy_nj_per_kinstr": energy / instructions * 1000.0,
    }


def _approx_err_max(grid, seed, traces, summaries):
    """Largest relative IPC error of ``engine="approx"`` over the grid's cells."""
    import dataclasses

    from repro.sim.driver import run_benchmark
    from repro.workloads.spec2k import get_benchmark
    from repro.workloads.tracegen import generate_trace

    exact = dict(summaries)
    worst = 0.0
    for config, benchmark in grid.cells():
        if benchmark not in traces:
            traces[benchmark] = generate_trace(
                get_benchmark(benchmark), grid.n_references, seed=seed
            )
        approx = run_benchmark(
            dataclasses.replace(config, engine="approx"), benchmark,
            n_references=grid.n_references, seed=seed,
            warmup_fraction=grid.warmup_fraction, trace=traces[benchmark],
        )
        summary = exact[f"{config.name}/{benchmark}"]
        ipc = summary["instructions"] / summary["cycles"]
        worst = max(worst, abs(approx.ipc - ipc) / ipc)
    return worst


# --- one workload -------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, scratch: str):
    """Set up, compute the reference, run the timed body; a metrics dict."""
    from perfbench import tracing

    spin = tracing.spin_s()
    start_setup = perf_counter()
    from perfbench import reference, workloads

    grid = workloads.WORKLOADS[name]
    spans_dir = None
    if trace:
        spans_dir = os.path.join(SPANS_ROOT, f"{name}-s{seed}")
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
    setup_samples, setup_layers, state = [], {}, None
    if grid.kind == "serial":
        tr = tracing.install() if trace else None
        state = workloads.serial_setup(grid, seed)
        setup_samples.append(
            (perf_counter() - start_setup) * tracing.rescale(spin, tracing.spin_s())
        )
        if tr is not None:
            setup_layers = tr.aggregate()
            tr.write(os.path.join(spans_dir, "setup.npz"))
            tracing.uninstall()
    calib = tracing.spin_s()
    reference_start = perf_counter()
    expected = reference.load(name, grid, seed)
    reference_s = perf_counter() - reference_start

    def one_pass(traced):
        pass_spans = spans_dir if traced else None
        if grid.kind == "serial":
            return workloads.serial_pass(grid, state, seed, traced, pass_spans)
        if grid.kind == "cold":
            return workloads.cold_pass(seed, scratch, traced, pass_spans)
        return workloads.service_pass(seed, scratch, traced, pass_spans)

    passes = []
    if grid.kind == "serial":
        tracing.reset_peak_rss()
    # Set-up probes run between passes, spread over the run so that one
    # slow spell of the host does not set the median; their time does
    # not count against the body's seconds.
    probes = SETUP_SAMPLES - len(setup_samples) if not trace and grid.kind != "cold" else 0
    elapsed = 0.0
    while True:
        start = perf_counter()
        passes.append(one_pass(trace and len(passes) % 2 == 1))
        elapsed += perf_counter() - start
        if probes:
            setup_samples.append(_probe(name, seed))
            probes -= 1
        if elapsed >= seconds and not probes and (not trace or len(passes) >= 2):
            break
    body_peak_kb = tracing.peak_rss_kb()

    n_cells = len(grid.cells())
    per_job = n_cells * (1 + workloads.RESUBMITS) if grid.kind == "service" else n_cells
    # A cell that raised or failed has no summary, so it counts as missing.
    attempted = per_job * len(passes)
    failed = 0
    for p in passes:
        mismatched = reference.check(expected, p.summaries)
        for key in mismatched:
            print(f"perfbench: {key} differs from the legacy reference", file=sys.stderr)
        failed += len(mismatched) + max(0, per_job - len(p.summaries))

    untraced = [p for p in passes if not p.traced]
    metrics = {}
    if not trace:
        if grid.kind == "cold":
            setup_samples = [
                p.extra["parallel.import_s"] * p.scale for p in passes if p.extra
            ]
        metrics.update(_end_to_end(grid.kind, passes, setup_samples, body_peak_kb))
    else:
        traced = [p for p in passes if p.traced]
        metrics.update(_layer_metrics(traced, setup_layers))
        for key in sorted({k for p in untraced for k in p.extra}):
            metrics[key] = _median([p.extra[key] for p in untraced])
        plain_wall = _repetition_s(grid.kind, untraced)
        overhead = _repetition_s(grid.kind, traced) - plain_wall
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / plain_wall
        metrics["host.calib_s"] = calib
        metrics["host.cpu_count"] = float(os.cpu_count() or 0)
        metrics.update(_model_metrics(passes[0].summaries))
        traces = dict(state.traces) if state is not None else {}
        metrics["approx.ipc_err_max"] = _approx_err_max(grid, seed, traces, passes[0].summaries)
    print(
        f"perfbench: {name} seed={seed} passes={len(passes)} cells={attempted} "
        f"failed={failed} reference_s={reference_s:.2f} body_s={elapsed:.2f} "
        f"host.calib_s={calib:.4f} cpus={os.cpu_count()} "
        f"python={sys.version.split()[0]} numpy={_numpy_version()}",
        file=sys.stderr,
    )
    return attempted, failed, metrics


def _numpy_version() -> str:
    import numpy

    return numpy.__version__


def _result_line(attempted, failed, metrics, entries, per_layer):
    """The final JSON object.  A per-layer metric of a layer the
    workload never enters (``service.*`` on a serial grid) reads 0."""
    missing = [e["name"] for e in entries if e["name"] not in metrics]
    if missing and not per_layer:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            e["name"]: {"value": metrics.get(e["name"], 0.0), "unit": e["unit"]}
            for e in entries
        },
    }


def run_all(args) -> int:
    """Every workload in its own process; a table of every metric."""
    spec = _spec()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
        )
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        print(f"== {name} (failed_ratio {result['failed'] / result['attempted']:.4f})")
        for metric, body in result["metrics"].items():
            print(f"  {metric:<34} {body['value']:>14.6g} {body['unit']}")
            combined["metrics"][f"{name}/{metric}"] = body
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", default="bench",
                        choices=("bench", "setup-probe", "cold-child", "write-reference"))
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    parser.add_argument("--cache", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    start = perf_counter()
    _bootstrap()
    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.role == "cold-child":
        from perfbench import workloads

        child = workloads.cold_child(
            args.seed, args.out, args.cache, bool(args.trace), args.spans
        )
        print(json.dumps(child))
        return 0
    if args.role == "setup-probe":
        from perfbench import workloads

        grid = workloads.WORKLOADS[args.workload]
        if grid.kind == "serial":
            workloads.serial_setup(grid, args.seed)
            setup_s = perf_counter() - start
        else:
            os.makedirs(SCRATCH_ROOT, exist_ok=True)
            scratch = tempfile.mkdtemp(prefix="probe-", dir=SCRATCH_ROOT)
            try:
                setup_s = workloads.service_setup(scratch, start)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.role == "write-reference":
        from perfbench import reference, workloads

        reference.write_all(workloads.WORKLOADS)
        return 0
    if args.workload == "all":
        return run_all(args)

    spec = _spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    try:
        attempted, failed, metrics = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_ROOT)  # only when no other run is using it
        except OSError:
            pass
    entries = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps(_result_line(attempted, failed, metrics, entries, bool(args.trace))))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _stop_helpers()
    sys.exit(code)
