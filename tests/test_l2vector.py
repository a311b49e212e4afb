"""The vectorized kernel over NuRAPID L2s: parity and liveness.

The vectorized engine promises bit-identity with the legacy loop, not
statistical agreement, so the randomized property suite here compares
full ``run_result_to_dict`` payloads — and telemetry report bytes —
against ``engine=legacy`` across benchmarks, seeds, set-conflict
pressure, prewarm, fault injection, and compressed-NuRAPID variants.
The liveness tests pin the kernel's runtime counters, because a
kernel that stops folding L1 hits (or keeps declining
telemetry runs) would pass every parity test while delivering none of
the speedup.
"""

import random
from dataclasses import replace

import pytest

from repro.cmp.config import CmpConfig, CompressionConfig
from repro.cpu.core import CoreModel
from repro.faults.models import FaultPlan
from repro.nurapid.config import DistanceReplacementKind, PromotionPolicy
from repro.sim.config import EXACT_ENGINES, nurapid_config
from repro.sim.driver import _replay, make_system, run_benchmark
from repro.sim.results import run_result_to_dict
from repro.telemetry import TelemetryConfig, reset_runtime_registry, runtime_counters
from repro.telemetry.report import merge_payloads, render_report
from repro.workloads.spec2k import get_benchmark
from repro.workloads.tracegen import TraceGenerator

WARMUP = 0.25


@pytest.fixture(autouse=True)
def _fresh_runtime_registry():
    reset_runtime_registry()
    yield
    reset_runtime_registry()


def compressed_config(**kw):
    return replace(
        nurapid_config(**kw),
        cmp=CmpConfig(cores=1, compression=CompressionConfig()),
    )


def run_dict(config, benchmark, refs, seed, conflict, prewarm, engine,
             telemetry=None):
    trace = TraceGenerator(
        get_benchmark(benchmark), seed=seed, warm_set_conflict=conflict
    ).generate(refs)
    result = run_benchmark(
        replace(config, engine=engine),
        benchmark,
        n_references=refs,
        seed=seed,
        warmup_fraction=WARMUP,
        trace=trace,
        prewarm=prewarm,
        telemetry=telemetry,
    )
    return run_result_to_dict(result)


class TestRandomizedL2Parity:
    """Property-style: the kernel equals the legacy loop on NuRAPID.

    Each sampled case draws NuRAPID variants, L2 fault injection and
    compressed d-groups (the last two are mutually exclusive by config
    validation) on top of the trace axes.
    """

    CASE_COUNT = 10

    def _cases(self):
        rng = random.Random(0x12C0DE)
        names = ["twolf", "art", "mcf", "galgel", "wupwise"]
        variants = [
            lambda: nurapid_config(),
            lambda: nurapid_config(
                n_dgroups=2,
                promotion=PromotionPolicy.DEMOTION_ONLY,
                distance_replacement=DistanceReplacementKind.LRU,
            ),
            lambda: nurapid_config(promotion_hysteresis=4),
            compressed_config,
        ]
        for _ in range(self.CASE_COUNT):
            config = rng.choice(variants)()
            faulted = config.cmp is None and rng.random() < 0.3
            if faulted:
                config = replace(
                    config,
                    faults=FaultPlan(
                        transient_per_access=1e-4,
                        seed=rng.randrange(1 << 8),
                    ),
                )
            yield {
                "benchmark": rng.choice(names),
                "seed": rng.randrange(1 << 16),
                "conflict": rng.choice([1, 2, 4, 8]),
                "prewarm": rng.random() < 0.7,
                "refs": rng.choice([2000, 4000, 6000]),
                "config": config,
            }

    @pytest.mark.parametrize("case_index", range(CASE_COUNT))
    def test_random_case_parity(self, case_index):
        case = list(self._cases())[case_index]
        payloads = {
            engine: run_dict(
                case["config"],
                case["benchmark"],
                case["refs"],
                case["seed"],
                case["conflict"],
                case["prewarm"],
                engine,
            )
            for engine in EXACT_ENGINES
        }
        assert payloads["legacy"] == payloads["vectorized"], case

    @pytest.mark.parametrize(
        "config",
        [nurapid_config(), compressed_config()],
        ids=["nurapid", "compressed"],
    )
    def test_telemetry_report_byte_identical(self, config):
        reports = {}
        for engine in EXACT_ENGINES:
            payload = run_dict(
                config, "galgel", 6000, 1, 1, True, engine,
                telemetry=TelemetryConfig(),
            )
            telem = payload.pop("telemetry")
            reports[engine] = render_report(merge_payloads([("cell", telem)]))
        assert reports["legacy"] == reports["vectorized"]
        assert reports["legacy"].startswith("== telemetry report ==")


class TestKernelLiveness:
    def test_vector_tier_fires_on_eligible_config(self):
        # Hits are folded, and exactly the L1 misses walk the scalar
        # miss path: refs_scalar equals the legacy loop's L1 misses.
        config = nurapid_config()
        profile = get_benchmark("galgel")
        trace = TraceGenerator(profile, seed=3).generate(8000)
        l1_misses = {}
        for engine in EXACT_ENGINES:
            system = make_system(config)
            core = CoreModel(
                params=config.core,
                core_ipc=profile.core_ipc,
                exposure=profile.exposure,
                branch_fraction=profile.branch_fraction,
                mispredict_rate=profile.mispredict_rate,
            )
            reset_runtime_registry()
            _replay(system, core, trace, engine=engine)
            l1_misses[engine] = system.l1d.misses
        counters = runtime_counters()
        assert counters.get("vectorized.refs", 0) == 8000
        assert counters.get("vectorized.refs_vector", 0) == 8000 - l1_misses["legacy"]
        assert counters.get("vectorized.refs_scalar", 0) == l1_misses["legacy"]
        assert 0 < l1_misses["legacy"] < 8000

    def test_telemetry_runs_stay_in_kernel(self):
        run_dict(
            nurapid_config(), "galgel", 8000, 3, 1, True, "vectorized",
            telemetry=TelemetryConfig(),
        )
        counters = runtime_counters()
        assert counters.get("vectorized.fallbacks", 0) == 0
        assert counters.get("vectorized.refs", 0) == 8000
