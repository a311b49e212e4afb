"""Engine parity: the vectorized replay kernel against the legacy loop.

The vectorized engine (:mod:`repro.sim.vectorized`) promises
bit-identity, not statistical agreement: for every shipped
configuration it must produce the same result summary, the same
telemetry report bytes, the same event-trace bytes, and the same
fault-injection outcomes as the legacy loop.  These tests hold it to
that across the config matrix and multiple seeds, including
checkpointed parallel sweeps.
"""

import random
from dataclasses import replace

import pytest

from repro.common.errors import ConfigurationError, UncorrectableDataError
from repro.cpu.core import CoreModel
from repro.faults.models import FaultPlan, HardFaultEvent
from repro.nuca.config import SearchPolicy
from repro.nurapid.config import DistanceReplacementKind, PromotionPolicy
from repro.sim.config import (
    EXACT_ENGINES,
    SystemConfig,
    base_config,
    dnuca_config,
    nurapid_config,
    resolve_engine,
    sa_nuca_config,
    snuca_config,
)
from repro.sim.driver import _replay, make_system, run_benchmark
from repro.sim.results import run_result_to_dict
from repro.sim.sweep import Sweep, SweepAxis
from repro.telemetry import TelemetryConfig, reset_runtime_registry, runtime_counters
from repro.telemetry.report import merge_payloads, render_report
from repro.workloads.spec2k import get_benchmark
from repro.workloads.tracegen import TraceGenerator, generate_trace

REFS = 6_000
WARMUP = 0.25


def shipped_configs():
    return [
        base_config(),
        nurapid_config(),
        nurapid_config(
            n_dgroups=2,
            promotion=PromotionPolicy.DEMOTION_ONLY,
            distance_replacement=DistanceReplacementKind.LRU,
        ),
        nurapid_config(promotion_hysteresis=2),
        dnuca_config(),
        sa_nuca_config(),
        snuca_config(),
    ]


#: D-NUCA variants beyond the shipped default: the sequential search
#: policies and head insertion take different promotion/eviction paths.
DNUCA_VARIANTS = [
    dnuca_config(policy=SearchPolicy.SS_ENERGY),
    dnuca_config(policy=SearchPolicy.INCREMENTAL),
    dnuca_config(tail_insertion=False, name="dnuca-head-insertion"),
]


_TRACES = {}


def trace_for(benchmark, seed):
    key = (benchmark, seed)
    if key not in _TRACES:
        _TRACES[key] = generate_trace(get_benchmark(benchmark), REFS, seed=seed)
    return _TRACES[key]


def run_dict(config, benchmark, seed, engine, telemetry=None):
    result = run_benchmark(
        replace(config, engine=engine),
        benchmark,
        n_references=REFS,
        seed=seed,
        warmup_fraction=WARMUP,
        trace=trace_for(benchmark, seed),
        telemetry=telemetry,
    )
    return run_result_to_dict(result)


class TestEngineSelection:
    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine(None) == "vectorized"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "legacy")
        assert resolve_engine(None) == "legacy"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "legacy")
        assert resolve_engine("vectorized") == "vectorized"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_engine("turbo")
        with pytest.raises(ConfigurationError):
            SystemConfig(name="x", l2_kind="base", engine="turbo")

    def test_config_engine_field(self):
        config = replace(snuca_config(), engine="legacy")
        assert resolve_engine(config.engine) == "legacy"


class TestResultParity:
    @pytest.mark.parametrize(
        "config", shipped_configs() + DNUCA_VARIANTS, ids=lambda c: c.name
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_summary_identical(self, config, seed):
        legacy = run_dict(config, "twolf", seed, "legacy")
        for engine in EXACT_ENGINES[1:]:
            assert legacy == run_dict(config, "twolf", seed, engine), engine

    @pytest.mark.parametrize(
        "config",
        [nurapid_config(), snuca_config()],
        ids=lambda c: c.name,
    )
    def test_telemetry_report_byte_identical(self, config):
        reports = {}
        for engine in EXACT_ENGINES:
            payload = run_dict(
                config, "galgel", 1, engine, telemetry=TelemetryConfig()
            )
            telem = payload.pop("telemetry")
            reports[engine] = render_report(merge_payloads([("cell", telem)]))
        assert reports["legacy"] == reports["vectorized"]
        assert reports["legacy"].startswith("== telemetry report ==")


class TestL2HeavyParity:
    """mcf drives the D-NUCA and SA-NUCA promotion, demotion and
    tail-eviction paths far harder than twolf."""

    @pytest.mark.parametrize(
        "config",
        [dnuca_config()] + DNUCA_VARIANTS + [sa_nuca_config()],
        ids=lambda c: c.name,
    )
    def test_mcf_summary_and_telemetry_identical(self, config):
        outputs = {}
        for engine in EXACT_ENGINES:
            payload = run_dict(config, "mcf", 1, engine, telemetry=TelemetryConfig())
            telem = payload.pop("telemetry")
            outputs[engine] = (payload, render_report(merge_payloads([("cell", telem)])))
        assert outputs["legacy"][0]["stats"]["evictions"] > 0
        for engine in EXACT_ENGINES[1:]:
            assert outputs[engine] == outputs["legacy"], engine


class TestEventTraceParity:
    """Events on: the kernel emits the L1's events inline, so the JSONL
    trace must match the legacy loop's byte for byte."""

    @pytest.mark.parametrize(
        "config",
        [nurapid_config(), base_config(), dnuca_config()],
        ids=lambda c: c.name,
    )
    def test_event_trace_byte_identical(self, config, tmp_path):
        outputs = {}
        for engine in EXACT_ENGINES:
            telemetry = TelemetryConfig(trace_dir=str(tmp_path / engine), events=True)
            payload = run_dict(config, "mcf", 1, engine, telemetry=telemetry)
            path = payload["telemetry"]["trace"].pop("path")
            with open(path, "rb") as handle:
                outputs[engine] = (payload, handle.read())
        assert b'"cache": "L1d", "kind": "eviction"' in outputs["legacy"][1]
        assert outputs["vectorized"] == outputs["legacy"]


class TestFaultParity:
    def transient_config(self):
        return nurapid_config(
            faults=FaultPlan(
                transient_per_access=2e-4,
                seed=9,
                hard_faults=(
                    HardFaultEvent(at_access=1000, dgroup=0, subarray=1),
                    HardFaultEvent(at_access=2000, dgroup=1, subarray=2),
                ),
            )
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fault_outcomes_identical(self, seed):
        config = self.transient_config()
        outcomes = {}
        for engine in EXACT_ENGINES:
            try:
                outcomes[engine] = ("ok", run_dict(config, "galgel", seed, engine))
            except UncorrectableDataError as exc:
                outcomes[engine] = ("due", str(exc))
        assert outcomes["legacy"] == outcomes["vectorized"]

    def test_uncorrectable_raises_in_both_engines(self):
        # Wide upsets over a 2-word interleave defeat SEC-DED, so a
        # dirty-line strike kills the run — identically, with the same
        # message, under either engine.
        config = nurapid_config(
            faults=FaultPlan(
                transient_per_access=5e-2,
                max_upset_bits=4,
                words_per_block=2,
                interleave_subarrays=1,
                seed=3,
            )
        )
        errors = {}
        for engine in EXACT_ENGINES:
            with pytest.raises(UncorrectableDataError) as info:
                run_dict(config, "twolf", 3, engine)
            errors[engine] = str(info.value)
        assert errors["legacy"] == errors["vectorized"]


def replay_end_state(config, benchmark, seed, engine, prewarm=True, arm=None):
    """Replay warmup then measured halves through ``_replay`` directly.

    Returns the outcome of each half (``"ok"`` or the error message)
    and, after it, the L1's flat state, the MSHR file and the core's
    scalars: everything a later replay call would start from.
    """
    profile = get_benchmark(benchmark)
    system = make_system(config, prewarm=prewarm)
    if arm is not None:
        arm(system)
    core = CoreModel(
        params=config.core,
        core_ipc=profile.core_ipc,
        exposure=profile.exposure,
        branch_fraction=profile.branch_fraction,
        mispredict_rate=profile.mispredict_rate,
    )
    l1 = system.l1d
    mshr = core.mshrs
    states = []
    for part in trace_for(benchmark, seed).split(WARMUP):
        try:
            _replay(system, core, part, engine=engine)
            outcome = "ok"
        except UncorrectableDataError as exc:
            outcome = str(exc)
        states.append(
            {
                "outcome": outcome,
                "l1": (list(l1._tags), bytes(l1._dirty), list(l1._stamps), l1._clock),
                "l1_counts": (l1.hits, l1.misses, l1.writebacks),
                "mshr": [
                    (a, e.block_addr, e.issued_at, e.fill_at, e.merged)
                    for a, e in mshr._entries.items()
                ],
                "mshr_min_fill": mshr._min_fill,
                "mshr_counts": (
                    mshr.primary_misses, mshr.merged_misses, mshr.full_stalls
                ),
                "core": (
                    core.cycle, core.instructions, core.memory_accesses,
                    core.branch_penalty_cycles, core.stall_cycles,
                    core.mshr_stall_cycles,
                ),
            }
        )
        if outcome != "ok":
            break
    return states


class TestEndStateParity:
    """The kernel leaves the state the legacy loop leaves, not only the
    summary: L1 tags/dirty/stamps/clock, MSHR entries and ``_min_fill``,
    and the core scalars, after each replay call."""

    @pytest.mark.parametrize(
        "config",
        [base_config(), nurapid_config(), dnuca_config(), snuca_config()],
        ids=lambda c: c.name,
    )
    @pytest.mark.parametrize("prewarm", [True, False])
    def test_end_state_identical(self, config, prewarm):
        states = {
            engine: replay_end_state(config, "mcf", 1, engine, prewarm)
            for engine in EXACT_ENGINES
        }
        assert [s["outcome"] for s in states["legacy"]] == ["ok", "ok"]
        assert states["legacy"] == states["vectorized"]

    def test_end_state_after_uncorrectable_error(self):
        # TestFaultParity's dirty-line strike: the replay dies mid-way.
        config = nurapid_config(
            faults=FaultPlan(
                transient_per_access=5e-2,
                max_upset_bits=4,
                words_per_block=2,
                interleave_subarrays=1,
                seed=3,
            )
        )
        states = {
            engine: replay_end_state(config, "twolf", 3, engine)
            for engine in EXACT_ENGINES
        }
        assert states["legacy"][-1]["outcome"] != "ok"
        assert states["legacy"] == states["vectorized"]

    def test_end_state_when_l1_writeback_raises(self):
        # The error comes after the L1 fill, from the dirty victim's
        # writeback into the L2: the L1 has already taken the miss.
        def arm(system):
            l2 = system.lower[0]
            access = l2.access
            writebacks = [0]

            def failing_access(address, is_write=False, now=0.0):
                if is_write:
                    writebacks[0] += 1
                    if writebacks[0] == 40:
                        raise UncorrectableDataError("L2", address, 40)
                return access(address, is_write=is_write, now=now)

            l2.access = failing_access

        states = {
            engine: replay_end_state(base_config(), "mcf", 1, engine, arm=arm)
            for engine in EXACT_ENGINES
        }
        assert states["legacy"][-1]["outcome"].endswith("in L2 (access #40)")
        assert states["legacy"] == states["vectorized"]


class TestFallback:
    def test_l1_fault_injector_falls_back(self):
        """An armed L1 makes the kernel decline: one fallback, and the
        legacy loop's results."""
        config = base_config()
        trace = trace_for("twolf", 0)
        profile = get_benchmark("twolf")

        def run(engine, arm):
            system = make_system(config)
            if arm:
                system.l1d.attach_faults(FaultPlan(transient_per_access=0.0))
            core = CoreModel(
                params=config.core,
                core_ipc=profile.core_ipc,
                exposure=profile.exposure,
                branch_fraction=profile.branch_fraction,
                mispredict_rate=profile.mispredict_rate,
            )
            reset_runtime_registry()
            _replay(system, core, trace, engine=engine)
            fallbacks = runtime_counters().get("vectorized.fallbacks", 0)
            return (core.cycle, core.instructions, system.l1d.hits), fallbacks

        armed, fallbacks = run("vectorized", arm=True)
        assert fallbacks == 1
        assert armed == run("legacy", arm=True)[0]
        fused, fallbacks = run("vectorized", arm=False)
        assert fallbacks == 0  # the clean system took the kernel
        # A zero-rate plan is behaviourally inert: both paths agree.
        assert armed == fused


class TestSweepParity:
    def sweep_results(self, engine, monkeypatch, **kw):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        points = Sweep(
            axes=[SweepAxis("n_dgroups", (2, 4))],
            build=lambda n_dgroups: nurapid_config(n_dgroups=n_dgroups),
            benchmarks=["twolf"],
            n_references=4_000,
            **kw,
        ).run()
        return [
            {b: run_result_to_dict(r) for b, r in point.runs.items()}
            for point in points
        ]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # jobs=2 on 1 CPU
    def test_checkpoint_resume_jobs2_matches_legacy_serial(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "ckpt.json")
        legacy = self.sweep_results("legacy", monkeypatch)
        vectorized = self.sweep_results(
            "vectorized", monkeypatch, jobs=2, checkpoint_path=path,
            checkpoint_every=1,
        )
        assert legacy == vectorized
        # Resume from the completed checkpoint: cells load, nothing
        # re-runs, results still match.
        def boom(*a, **kw):
            raise AssertionError("resume re-ran a checkpointed cell")

        monkeypatch.setattr("repro.sim.sweep.run_benchmark", boom)
        resumed = self.sweep_results(
            "vectorized", monkeypatch, jobs=2, checkpoint_path=path
        )
        assert resumed == legacy


class TestRandomizedVectorizedParity:
    """Property-style: the vectorized kernel equals the legacy loop.

    Randomized traces (seeded, so reproducible) exercise the L1
    hit/miss/dirty/LRU state machine under varying set-conflict
    pressure, with and without lower-level prewarm; every sample must
    replay bit-identically under the legacy loop and the miss-driven
    vectorized kernel.
    """

    CASE_COUNT = 8

    def _cases(self):
        rng = random.Random(0xC0FFEE)
        names = ["twolf", "art", "mcf", "mesa", "galgel"]
        for index in range(self.CASE_COUNT):
            yield {
                "benchmark": rng.choice(names),
                "seed": rng.randrange(1 << 16),
                "conflict": rng.choice([1, 2, 4, 8, 16]),
                "prewarm": rng.random() < 0.5,
                "refs": rng.choice([1500, 3000, 5000]),
                "config": rng.choice(
                    [base_config, nurapid_config, snuca_config]
                )(),
            }

    @pytest.mark.parametrize("case_index", range(CASE_COUNT))
    def test_random_trace_parity(self, case_index):
        case = list(self._cases())[case_index]
        profile = get_benchmark(case["benchmark"])
        generator = TraceGenerator(
            profile, seed=case["seed"], warm_set_conflict=case["conflict"]
        )
        trace = generator.generate(case["refs"])
        payloads = {}
        for engine in EXACT_ENGINES:
            result = run_benchmark(
                replace(case["config"], engine=engine),
                case["benchmark"],
                n_references=case["refs"],
                seed=case["seed"],
                warmup_fraction=WARMUP,
                trace=trace,
                prewarm=case["prewarm"],
            )
            payloads[engine] = run_result_to_dict(result)
        assert payloads["legacy"] == payloads["vectorized"], case
