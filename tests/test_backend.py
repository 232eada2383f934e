"""Tests for the kernel backend interface, registry, and sampled mode.

The heavy equivalence artillery lives elsewhere (golden pins and
differential laws parametrized over backends, the fuzz smoke, the
hypothesis property in ``test_pipeline.py``); this file covers the
backend subsystem itself: the ``BACKENDS`` mapping, spec parsing, the
exactness gate, sampled-mode geometry and its declared error bounds,
and the planted-drift self-test of the cross-check.
"""

from dataclasses import replace

import pytest

from repro.core.backend import (
    BACKENDS,
    DEFAULT_BACKEND,
    KernelBackend,
    OptimizedBackend,
    ReferenceBackend,
    RetireStreamRecorder,
    SampledBackend,
    SamplingReport,
    SamplingWindow,
    parse_backend,
)
from repro.core.config import CoreConfig, LoadRecovery, PortConfig
from repro.core.pipeline import Simulator
from repro.core.simulator import simulate
from repro.errors import ConfigError
from repro.verify import Verifier
from repro.workloads import (
    SCENARIO_PROFILES,
    SMOKE_PROFILES,
    SPEC95_PROFILES,
    workload_profiles,
)
from repro.workloads.fastgen import FastSyntheticTraceGenerator
from repro.workloads.generator import SyntheticTraceGenerator

ALL_PROFILES = {**SPEC95_PROFILES, **SCENARIO_PROFILES, **SMOKE_PROFILES}


# ---------------------------------------------------------------------------
# Registry and spec parsing
# ---------------------------------------------------------------------------


class TestRegistry:
    """``BACKENDS``, the fixed name -> backend mapping."""

    def test_shipped_backends_are_registered(self):
        assert tuple(BACKENDS) == ("reference", "optimized", "sampled")
        assert all(name == kernel.name for name, kernel in BACKENDS.items())

    def test_exactness_declarations(self):
        assert BACKENDS["reference"].exact
        assert BACKENDS["optimized"].exact
        assert not BACKENDS["sampled"].exact

    def test_get_unknown_backend_raises(self):
        # the refusal lists every name BACKENDS holds
        with pytest.raises(ConfigError, match=(
            r"unknown kernel backend 'warp-drive' "
            r"\(available: reference, optimized, sampled\)"
        )):
            parse_backend("warp-drive")


class TestParseBackend:
    def test_none_means_default(self):
        assert parse_backend(None).name == DEFAULT_BACKEND

    def test_names_resolve(self):
        assert parse_backend("optimized").name == "optimized"

    def test_instance_passes_through(self):
        backend = SampledBackend(windows=2, measure=100)
        assert parse_backend(backend) is backend

    def test_parameterised_sampled_spec(self):
        backend = parse_backend("sampled:4x250+80")
        assert isinstance(backend, SampledBackend)
        assert backend.windows == 4
        assert backend.measure == 250
        assert backend.window_warmup == 80
        assert backend.token == "sampled:4x250+80"

    def test_sampled_spec_default_warmup(self):
        backend = parse_backend("sampled:4x250")
        assert backend.window_warmup == 300

    def test_bad_sampled_spec_raises(self):
        with pytest.raises(ConfigError, match="bad sampled backend spec"):
            parse_backend("sampled:whoops")

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            parse_backend("turbo")

    def test_non_string_non_backend_raises(self):
        with pytest.raises(ConfigError):
            parse_backend(42)


class TestDefaultBackend:
    """One constant picks the kernel of every default path; the ground
    truth stays selectable by name."""

    def test_default_is_an_exact_kernel_other_than_the_truth(self):
        # exact: `loopsim verify` runs the default under the verifier
        default = BACKENDS[DEFAULT_BACKEND]
        assert default.exact
        assert default.name != "reference"

    def test_every_kernel_selecting_default_reads_the_constant(self):
        from repro.__main__ import build_parser
        from repro.experiments.runner import ExperimentSettings
        from repro.explore import HalvingSettings
        from repro.serve.protocol import build_cell, make_cell_spec

        parser = build_parser()
        defaults = {
            "ExperimentSettings": ExperimentSettings().backend,
            "HalvingSettings": HalvingSettings().backend,
            "serve spec": make_cell_spec("int_test")["backend"],
            "serve cell": build_cell(
                {"workload": "int_test"}
            ).settings.backend,
            "run": parser.parse_args(["run", "int_test"]).backend,
            "fig8": parser.parse_args(["fig8"]).backend,
            "explore": parser.parse_args(["explore"]).backend,
            "submit": parser.parse_args(["submit", "int_test"]).backend,
        }
        assert defaults == dict.fromkeys(defaults, DEFAULT_BACKEND)

    def test_perf_record_names_reference(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(["perf", "record"])
        assert args.backend == "reference"


class TestSampledValidation:
    def test_zero_windows_refused(self):
        with pytest.raises(ConfigError):
            SampledBackend(windows=0)

    def test_zero_measure_refused(self):
        with pytest.raises(ConfigError):
            SampledBackend(measure=0)

    def test_negative_warmup_refused(self):
        with pytest.raises(ConfigError):
            SampledBackend(window_warmup=-1)


# ---------------------------------------------------------------------------
# Build/run plumbing
# ---------------------------------------------------------------------------


class TestBuildRun:
    def test_reference_builds_plain_simulator(self):
        sim = ReferenceBackend().build(
            CoreConfig.base(3), workload_profiles("int_test")
        )
        assert type(sim) is Simulator

    def test_optimized_builds_subclass(self):
        from repro.core.fastsim import OptimizedSimulator

        sim = OptimizedBackend().build(
            CoreConfig.base(3), workload_profiles("int_test")
        )
        assert isinstance(sim, OptimizedSimulator)
        assert isinstance(sim, Simulator)

    def test_simulate_records_backend_token(self):
        result = simulate(
            "int_test", CoreConfig.base(3), instructions=400,
            warmup=4000, detailed_warmup=100, backend="optimized",
        )
        assert result.backend == "optimized"
        assert result.sampling is None

    def test_sampled_result_carries_report(self):
        result = simulate(
            "int_test", CoreConfig.base(3), instructions=6000,
            warmup=8000, detailed_warmup=200,
            backend="sampled:4x300+100",
        )
        assert result.backend == "sampled:4x300+100"
        report = result.sampling
        assert report is not None
        assert len(report.windows) == 4
        assert report.span == 6000
        assert 0.0 < report.detail_fraction < 1.0
        assert report.ipc_mean > 0
        lo, hi = report.ci95
        assert lo <= report.ipc_mean <= hi
        # the aggregate CoreStats pool exactly the measured windows
        assert result.stats.measured_cycles == sum(
            w.cycles for w in report.windows
        )
        assert result.stats.measured_retired == sum(
            w.retired for w in report.windows
        )

    def test_sampled_degrades_to_one_window_on_tiny_spans(self):
        result = simulate(
            "int_test", CoreConfig.base(3), instructions=300,
            warmup=4000, detailed_warmup=50,
            backend="sampled:8x200+100",
        )
        assert len(result.sampling.windows) == 1
        assert result.sampling.functional_instructions == 0

    def test_verifier_refuses_inexact_backend(self):
        from repro.verify import Verifier

        with pytest.raises(ConfigError, match="not exact"):
            simulate(
                "int_test", CoreConfig.base(3), instructions=400,
                warmup=2000, detailed_warmup=100,
                backend="sampled", verifier=Verifier(),
            )

    def test_exact_backends_agree_bit_for_bit(self):
        streams = {}
        for name in ("reference", "optimized"):
            kernel = BACKENDS[name]
            sim = kernel.build(
                CoreConfig.base(3), workload_profiles("int_test"), seed=3
            )
            recorder = RetireStreamRecorder()
            recorder.install(sim)
            sim.functional_warmup(2000)
            stats = kernel.run(sim, 1500, warmup=200)
            streams[name] = (stats.cycles, stats.retired,
                            stats.total_reissues, recorder.stream)
        assert streams["reference"] == streams["optimized"]

    @pytest.mark.parametrize("config", [
        CoreConfig.base(5, rf_read_ports=4),
        CoreConfig.base(5, rf_read_ports=4,
                        ports=PortConfig(arbitration="operand_share")),
        CoreConfig.base(5, rf_read_ports=4,
                        ports=PortConfig(arbitration="banked", banks=2)),
        CoreConfig.base(5, load_recovery=LoadRecovery.SSR, ssr_threshold=4),
    ], ids=["ports-oldest", "ports-share", "ports-banked", "ssr"])
    def test_mechanism_configs_agree_bit_for_bit(self, config):
        """The new port/SSR paths keep the equivalence matrix green."""
        results = {}
        for name in ("reference", "optimized"):
            stats = simulate(
                "int_test", config, instructions=1200,
                warmup=10_000, detailed_warmup=200, seed=0, backend=name,
            ).stats
            results[name] = (stats.cycles, stats.retired, stats.issues,
                             stats.total_reissues, stats.port_stalls)
        assert results["reference"] == results["optimized"]
        if config.rf_read_ports == 4:
            assert results["reference"][4] > 0  # ports actually contended

    def test_recorder_chains_existing_hook(self):
        seen = []
        sim = ReferenceBackend().build(
            CoreConfig.base(3), workload_profiles("int_test")
        )
        sim.retire_hook = lambda inst: seen.append(inst.uid)
        recorder = RetireStreamRecorder()
        recorder.install(sim)
        sim.functional_warmup(1000)
        sim.run(200, warmup=0)
        assert len(seen) == len(recorder.stream) > 0


class TestFastGenerator:
    """The optimized kernel's generator is the readable one, op for op:
    the same ``next_op()`` stream and the same RNG state after it."""

    OPS = 2_000

    @pytest.mark.parametrize("name", sorted(ALL_PROFILES))
    def test_stream_and_rng_state_match_the_readable_generator(self, name):
        profile = ALL_PROFILES[name]
        for seed in (0, 7):
            for thread in (0, 1):
                readable = SyntheticTraceGenerator(profile, seed, thread)
                fast = FastSyntheticTraceGenerator(profile, seed, thread)
                where = f"{name} seed {seed} thread {thread}"
                assert [readable.next_op() for _ in range(self.OPS)] == \
                    [fast.next_op() for _ in range(self.OPS)], where
                assert readable._rng.getstate() == fast._rng.getstate(), where
                # the oracle's rebuild: clone() + fast_forward(emitted)
                rebuilt = fast.clone()
                assert type(rebuilt) is SyntheticTraceGenerator
                rebuilt.fast_forward(fast.emitted)
                assert [rebuilt.next_op() for _ in range(100)] == \
                    [fast.next_op() for _ in range(100)], where

    def test_retire_oracle_catches_a_fast_generator_divergence(
        self, monkeypatch
    ):
        """A one-op slip in the fast generator fails a verified run on
        the default kernel: the oracle's reference stream comes from the
        readable generator, not from the kernel's own."""
        assert DEFAULT_BACKEND == "optimized"
        planted = 20_500
        fast_next_op = FastSyntheticTraceGenerator.next_op

        def next_op(self):
            op = fast_next_op(self)
            if self.emitted == planted:
                op = replace(op, pc=op.pc + 4)
            return op

        monkeypatch.setattr(FastSyntheticTraceGenerator, "next_op", next_op)
        verifier = Verifier()
        simulate(
            "int_test", CoreConfig.base(3), instructions=1500,
            warmup=20_000, detailed_warmup=400, verifier=verifier,
        )
        messages = [v.describe() for v in verifier.violations]
        assert len(messages) == 1, messages
        assert messages[0].startswith("[oracle]"), messages
        assert "retired op diverges" in messages[0], messages


# ---------------------------------------------------------------------------
# The error model
# ---------------------------------------------------------------------------


def _report(ipcs, rel_slack=0.03):
    windows = tuple(
        SamplingWindow(cycles=1000, retired=int(round(ipc * 1000)))
        for ipc in ipcs
    )
    return SamplingReport(
        windows=windows, span=20_000,
        detail_instructions=sum(w.retired for w in windows),
        functional_instructions=10_000, rel_slack=rel_slack,
    )


class TestSamplingReportMath:
    def test_mean_and_stderr(self):
        report = _report([1.0, 1.2, 0.8, 1.0])
        assert report.ipc_mean == pytest.approx(1.0)
        assert report.ipc_stderr == pytest.approx(0.08165, rel=1e-3)

    def test_single_window_has_zero_stderr(self):
        report = _report([1.0])
        assert report.ipc_stderr == 0.0
        lo, hi = report.ci95
        assert lo == hi == report.ipc_mean

    def test_empty_window_ipc_is_zero(self):
        assert SamplingWindow(cycles=0, retired=0).ipc == 0.0

    def test_describe_mentions_windows_and_ci(self):
        text = _report([1.0, 1.1]).describe()
        assert "windows=2" in text
        assert "ci95=" in text

    def test_cross_check_accepts_in_bounds_full_run(self):
        report = _report([1.00, 1.04, 0.96, 1.02, 0.98])
        assert report.cross_check(1.01)

    def test_cross_check_is_symmetric_around_mean(self):
        report = _report([1.0, 1.0, 1.0, 1.0])
        tolerance = report.tolerance
        assert report.cross_check(1.0 + tolerance * 0.99)
        assert report.cross_check(1.0 - tolerance * 0.99)
        assert not report.cross_check(1.0 + tolerance * 1.01)


class TestPlantedDrift:
    """The cross-check must catch a miscalibrated sampling run.

    Calibration errors are *systematic*: every window drifts the same
    way (e.g. measurement opening before the pipeline refills), so the
    between-window variance stays small while the mean walks away from
    the truth — exactly the failure the CI + slack band is sized to
    reject.
    """

    def test_uniform_drift_is_caught(self):
        truth = 1.0
        honest = _report([0.98, 1.01, 0.99, 1.02, 1.00, 0.99])
        assert honest.cross_check(truth)
        # a +15% systematic bias with the same tiny variance
        drifted = _report([i * 1.15 for i in
                           (0.98, 1.01, 0.99, 1.02, 1.00, 0.99)])
        assert not drifted.cross_check(truth)

    def test_drift_detection_end_to_end(self):
        """A real sampled run, re-reported with a planted calibration
        drift, must fail the cross-check that the honest report passes."""
        from dataclasses import replace

        full = simulate(
            "int_test", CoreConfig.base(3), instructions=24_000,
            warmup=20_000, detailed_warmup=500, backend="optimized",
        )
        sampled = simulate(
            "int_test", CoreConfig.base(3), instructions=24_000,
            warmup=20_000, detailed_warmup=500, backend="sampled",
        )
        report = sampled.sampling
        assert report.cross_check(full.ipc), (
            f"calibrated run out of bounds: full={full.ipc:.4f} "
            f"{report.describe()}"
        )
        drifted = replace(
            report,
            windows=tuple(
                SamplingWindow(cycles=w.cycles,
                               retired=int(w.retired * 1.5))
                for w in report.windows
            ),
        )
        assert not drifted.cross_check(full.ipc)


class TestSampledErrorBounds:
    """Sampled IPC lands inside the declared interval of the full run
    across the shipped profile families (int/fp SPEC-style synthetics,
    scenario families, SMT pairs)."""

    FAMILIES = ("int_test", "swim", "pointer_chase", "server_icache")

    @pytest.mark.parametrize("workload", FAMILIES)
    def test_sampled_within_declared_bounds(self, workload):
        full = simulate(
            workload, CoreConfig.base(3), instructions=24_000,
            warmup=20_000, detailed_warmup=500, backend="optimized",
        )
        sampled = simulate(
            workload, CoreConfig.base(3), instructions=24_000,
            warmup=20_000, detailed_warmup=500, backend="sampled",
        )
        report = sampled.sampling
        assert report.cross_check(full.ipc), (
            f"{workload}: full={full.ipc:.4f} outside "
            f"{report.describe()}"
        )

    def test_sampled_tracks_dra_machine_too(self):
        config = CoreConfig.with_dra(3)
        full = simulate(
            "int_test", config, instructions=24_000,
            warmup=20_000, detailed_warmup=500, backend="optimized",
        )
        sampled = simulate(
            "int_test", config, instructions=24_000,
            warmup=20_000, detailed_warmup=500, backend="sampled",
        )
        assert sampled.sampling.cross_check(full.ipc)


class TestUpdateGoldenGate:
    def test_refuses_non_reference_backend(self):
        import os
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "scripts",
                                          "update_golden.py"),
             "--backend", "optimized"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "refusing" in proc.stderr

    def test_regenerates_from_the_reference_kernel(self, monkeypatch,
                                                   tmp_path):
        """Every pin is simulated on ``reference`` by name, never on
        whatever the default kernel is."""
        import importlib.util
        import os
        from types import SimpleNamespace

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "update_golden", os.path.join(root, "scripts", "update_golden.py")
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        backends = []

        def spy(workload, config, **kwargs):
            backends.append(kwargs.get("backend"))
            stats = SimpleNamespace(cycles=1, retired=1, total_reissues=0)
            return SimpleNamespace(stats=stats)

        monkeypatch.setattr(script, "simulate", spy)
        monkeypatch.setattr(script, "GOLDEN_PATH",
                            str(tmp_path / "ipc_numbers.json"))
        monkeypatch.setattr("sys.argv", ["update_golden.py"])
        assert script.main() == 0
        expected = len(list(script.golden_cells())) + len(script.SCENARIO_RUNS)
        assert len(backends) == expected
        assert all(parse_backend(b).name == "reference" for b in backends)
