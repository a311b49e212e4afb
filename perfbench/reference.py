"""Reference check: every simulated cell against the legacy engine.

A cell's canonical summary is its ``run_result_to_dict`` payload with
host-only fields removed.  The reference is the same cell run with
``engine="legacy"``, the repo's parity reference loop.  For the default
seed the reference digests are checked in (``reference_digests.json``);
for any other seed they are computed before the timed body, on the
repo's own ``run_cells`` executor.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict, Iterable, List, Mapping, Tuple

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_digests.json")
DEFAULT_SEED = 0
#: Worker processes used to compute a reference (outside the timed body).
REFERENCE_JOBS = 2


def canonical(payload: Mapping[str, object]) -> Dict[str, object]:
    """A result payload without host-only fields.

    Telemetry stays (its registry is a deterministic function of the
    run); its wall-clock ``profile`` section and the trace file path do
    not.
    """
    summary = dict(payload)
    telemetry = summary.get("telemetry")
    if isinstance(telemetry, dict):
        telemetry = {k: v for k, v in telemetry.items() if k != "profile"}
        trace = telemetry.get("trace")
        if isinstance(trace, dict):
            telemetry["trace"] = {k: v for k, v in trace.items() if k != "path"}
        summary["telemetry"] = telemetry
    return summary


def digest(summary: Mapping[str, object]) -> str:
    encoded = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _tasks(grid, seed: int):
    from repro.sim.parallel import CellTask
    from repro.telemetry import TelemetryConfig

    return [
        CellTask(
            index=index,
            config=dataclasses.replace(config, engine="legacy"),
            benchmark=benchmark,
            n_references=grid.n_references,
            seed=seed,
            warmup_fraction=grid.warmup_fraction,
            isolate_errors=False,
            telemetry=TelemetryConfig() if grid.telemetry else None,
        )
        for index, (config, benchmark) in enumerate(grid.cells())
    ]


def compute(grid, seed: int) -> Dict[str, str]:
    """``config/benchmark`` -> digest of the legacy-engine summary."""
    from repro.sim.parallel import run_cells

    tasks = _tasks(grid, seed)
    digests = {}
    for task, payload in zip(tasks, run_cells(tasks, REFERENCE_JOBS)):
        key = f"{task.config.name}/{task.benchmark}"
        digests[key] = digest(canonical(payload["result"]))
    return digests


def load(workload: str, grid, seed: int) -> Dict[str, str]:
    """The reference digests for one workload and seed."""
    if seed == DEFAULT_SEED and os.path.exists(DIGESTS_PATH):
        with open(DIGESTS_PATH) as handle:
            stored = json.load(handle)
        entry = stored.get(workload)
        if entry is not None and entry.get("grid") == grid_signature(grid):
            return dict(entry["cells"])
    return compute(grid, seed)


def grid_signature(grid) -> Dict[str, object]:
    """What the checked-in digests were computed for."""
    return {
        "configs": list(grid.configs),
        "benchmarks": grid.benchmark_names(),
        "n_references": grid.n_references,
        "warmup_fraction": grid.warmup_fraction,
        "telemetry": grid.telemetry,
        "seed": DEFAULT_SEED,
    }


def check(
    expected: Mapping[str, str], summaries: Iterable[Tuple[str, Mapping[str, object]]]
) -> List[str]:
    """Keys of the cells whose summary differs from the reference."""
    return [
        key
        for key, summary in summaries
        if expected.get(key) != digest(summary)
    ]


def write_all(workloads) -> None:
    """Recompute and store the default-seed digests of every workload."""
    stored = {
        name: {
            "grid": grid_signature(grid),
            "cells": compute(grid, DEFAULT_SEED),
        }
        for name, grid in workloads.items()
    }
    with open(DIGESTS_PATH, "w") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")
