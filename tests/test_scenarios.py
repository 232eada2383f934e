"""Tests for repro.scenarios: trace capture/replay, dynamic workloads,
phase-sliced attribution, and the scenario wiring into suites, cache,
fuzzing, and the CLI."""

import gzip
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.__main__ import main
from repro.core.config import CoreConfig
from repro.core.simulator import simulate
from repro.errors import WorkloadError
from repro.obs import EventBus, PhaseEvent
from repro.obs.attribution import LoopAttribution
from repro.scenarios import (
    PATTERNS,
    DynamicSpec,
    DynamicWorkloadEngine,
    PhaseSchedule,
    TraceError,
    TraceExhaustedError,
    TraceReplayEngine,
    TraceSpec,
    build_engine_for,
    capture_trace,
    interpolate_profiles,
    stressed_variant,
    workload_catalog,
    workload_signature,
    write_trace,
)
from repro.verify import Verifier
from repro.workloads import (
    SCENARIO_PAIRS,
    SCENARIO_PROFILES,
    SMOKE_PROFILES,
    SPEC95_PROFILES,
    SyntheticTraceGenerator,
    WorkloadProfile,
    workload_profiles,
)

GOLDEN_TRACE = os.path.join(
    os.path.dirname(__file__), "golden", "mini_int_test.trace.gz"
)

#: Cheap shared run geometry for end-to-end scenario runs.
RUN = dict(warmup=500, instructions=1_500, detailed_warmup=100)


# ---------------------------------------------------------------------------
# Trace capture / replay
# ---------------------------------------------------------------------------


class TestTraceRoundTrip:
    def test_capture_replays_bit_identical(self, tmp_path):
        """A captured stream replays op-for-op equal to its generator."""
        path = str(tmp_path / "t.trace.gz")
        count = capture_trace("int_test", path, 3_000)
        assert count == 3_000
        engine = TraceReplayEngine(path)
        generator = SyntheticTraceGenerator(SMOKE_PROFILES["int_test"])
        for index in range(3_000):
            assert engine.next_op() == generator.next_op(), index

    def test_replayed_retire_stream_matches_generator_run(self, tmp_path):
        """Simulating from the trace retires the exact same ops as
        simulating from the generator, and the golden retire model
        (rebuilt from the replay engine's clone) signs off on the run."""
        path = str(tmp_path / "t.trace.gz")
        # long enough that the run never wraps past the capture
        capture_trace("int_test", path, 20_000)
        config = CoreConfig.base(3)

        def retired_ops(workload):
            from repro.core.pipeline import Simulator

            simulator = Simulator(
                config, workload_profiles(workload), seed=0
            )
            ops = []
            simulator.retire_hook = lambda inst: ops.append(inst.op)
            simulator.run(800, warmup=300)
            return ops

        trace_ops = retired_ops(f"trace:{path}")
        generator_ops = retired_ops("int_test")
        assert trace_ops == generator_ops
        assert len(trace_ops) >= 1_100
        verifier = Verifier()
        simulate(f"trace:{path}", config, seed=0, verifier=verifier, **RUN)
        assert verifier.passed, [v.describe() for v in verifier.violations]

    def test_committed_golden_trace_matches_generator(self):
        """The checked-in miniature trace still reproduces int_test."""
        engine = TraceReplayEngine(GOLDEN_TRACE)
        assert engine.header["source"] == "int_test"
        generator = SyntheticTraceGenerator(SMOKE_PROFILES["int_test"])
        for index in range(len(engine)):
            assert engine.next_op() == generator.next_op(), index

    def test_uncompressed_path_works(self, tmp_path):
        path = str(tmp_path / "t.trace")
        capture_trace("int_test", path, 50)
        assert len(TraceReplayEngine(path)) == 50

    def test_capture_smt_pair_thread(self, tmp_path):
        path = str(tmp_path / "t.trace")
        capture_trace("apsi+swim", path, 100, thread=1)
        engine = TraceReplayEngine(path)
        swim = SyntheticTraceGenerator(SPEC95_PROFILES["swim"], thread=1)
        for _ in range(100):
            assert engine.next_op() == swim.next_op()


class TestTraceReplayEngine:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = str(tmp_path / "t.trace")
        capture_trace("int_test", path, 200)
        return path

    def test_loop_wraps(self, trace_path):
        engine = TraceReplayEngine(trace_path)
        first = [engine.next_op() for _ in range(200)]
        assert engine.next_op() == first[0]
        assert engine.emitted == 201

    def test_no_loop_exhausts(self, trace_path):
        engine = TraceReplayEngine(trace_path, loop=False)
        for _ in range(200):
            engine.next_op()
        with pytest.raises(TraceExhaustedError):
            engine.next_op()

    def test_seek_and_rewind(self, trace_path):
        engine = TraceReplayEngine(trace_path)
        ops = [engine.next_op() for _ in range(200)]
        engine.seek(40)
        assert engine.emitted == 40
        assert engine.next_op() == ops[40]
        engine.seek(350)  # forward across the wrap point
        assert engine.next_op() == ops[150]
        engine.seek(201)  # rewind
        assert engine.next_op() == ops[1]

    def test_clone_fast_forward_contract(self, trace_path):
        engine = TraceReplayEngine(trace_path)
        ops = [engine.next_op() for _ in range(137)]
        twin = engine.clone()
        assert twin.emitted == 0
        twin.fast_forward(101)
        assert twin.next_op() == ops[101]

    def test_spec_signature_tracks_content(self, tmp_path):
        a = str(tmp_path / "a.trace")
        b = str(tmp_path / "b.trace")
        capture_trace("int_test", a, 60)
        capture_trace("int_test", b, 60, seed=1)
        assert TraceSpec(a).signature() != TraceSpec(b).signature()
        # identical content => identical signature
        c = str(tmp_path / "c.trace")
        capture_trace("int_test", c, 60)
        assert TraceSpec(a).signature() == TraceSpec(c).signature()


class TestTraceFormatErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            TraceReplayEngine(str(tmp_path / "nope.trace"))

    def test_not_a_trace(self, tmp_path):
        path = tmp_path / "junk.trace"
        path.write_bytes(b"\x00\x01\x02 not json\nmore")
        with pytest.raises(TraceError):
            TraceReplayEngine(str(path))

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "other.trace"
        path.write_bytes(json.dumps({"format": "other"}).encode() + b"\n")
        with pytest.raises(TraceError, match="format"):
            TraceReplayEngine(str(path))

    def test_version_mismatch(self, tmp_path):
        path = str(tmp_path / "t.trace")
        capture_trace("int_test", path, 10)
        with open(path, "rb") as handle:
            header_line, body = handle.read().split(b"\n", 1)
        header = json.loads(header_line)
        header["version"] = 99
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(TraceError, match="version"):
            TraceReplayEngine(path)

    def test_truncated_body(self, tmp_path):
        path = str(tmp_path / "t.trace")
        capture_trace("int_test", path, 10)
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(raw[:-5])
        with pytest.raises(TraceError, match="records"):
            TraceReplayEngine(path)

    def test_capture_rejects_bad_params(self, tmp_path):
        with pytest.raises(TraceError, match="count"):
            capture_trace("int_test", str(tmp_path / "t"), 0)
        with pytest.raises(TraceError, match="thread"):
            capture_trace("int_test", str(tmp_path / "t"), 10, thread=3)

    def test_write_trace_gzip_roundtrip(self, tmp_path):
        generator = SyntheticTraceGenerator(SMOKE_PROFILES["int_test"])
        ops = [generator.next_op() for _ in range(32)]
        path = str(tmp_path / "w.trace.gz")
        assert write_trace(path, ops, source="int_test") == 32
        with gzip.open(path, "rb") as handle:
            header = json.loads(handle.readline())
        assert header["count"] == 32
        engine = TraceReplayEngine(path)
        assert [engine.next_op() for _ in range(32)] == ops


# ---------------------------------------------------------------------------
# Dynamic workloads
# ---------------------------------------------------------------------------


_profile_names = st.sampled_from(
    sorted(SPEC95_PROFILES) + sorted(SCENARIO_PROFILES) + ["int_test"]
)


def _named_profile(name):
    return workload_profiles(name)[0]


class TestPhaseScheduleProperties:
    @given(
        name=_profile_names,
        pattern=st.sampled_from(sorted(PATTERNS)),
        period=st.integers(min_value=8, max_value=4_096),
        positions=st.lists(
            st.integers(min_value=0, max_value=1 << 20),
            min_size=1, max_size=40,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_segment_at_is_pure_and_monotone(
        self, name, pattern, period, positions
    ):
        """segment_at is a pure function of position: re-querying agrees,
        ordinals never decrease along increasing positions, and the
        ordinal increments by exactly one per boundary crossing."""
        schedule = PhaseSchedule.from_pattern(
            _named_profile(name), pattern, period=period
        )
        assert schedule.total_ops >= len(schedule.phases)
        for position in positions:
            index, ordinal = schedule.segment_at(position)
            assert (index, ordinal) == schedule.segment_at(position)
            assert 0 <= index < len(schedule.phases)
            assert ordinal % len(schedule.phases) == index
        walked = [
            schedule.segment_at(p)[1] for p in sorted(positions)
        ]
        assert walked == sorted(walked)

    @given(
        name=_profile_names,
        pattern=st.sampled_from(sorted(PATTERNS)),
        intensity=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_interpolation_always_validates(self, name, pattern, intensity):
        """Any intensity in [0, 1] yields a constructible profile (the
        sub-model validators in profiles.py raise on any violation)."""
        base = _named_profile(name)
        profile = interpolate_profiles(
            base, stressed_variant(base), intensity, name="interp-test"
        )
        assert isinstance(profile, WorkloadProfile)
        assert abs(sum(frac for _, frac in profile.mix.items()) - 1.0) < 1e-6

    @given(
        name=_profile_names,
        pattern=st.sampled_from(sorted(PATTERNS)),
        period=st.integers(min_value=64, max_value=2_048),
        split=st.integers(min_value=0, max_value=600),
    )
    @settings(max_examples=25, deadline=None)
    def test_engine_clone_fast_forward_determinism(
        self, name, pattern, period, split
    ):
        """clone() + fast_forward(n) continues the stream exactly —
        the determinism contract the golden retire model relies on."""
        schedule = PhaseSchedule.from_pattern(
            _named_profile(name), pattern, period=period
        )
        engine = DynamicWorkloadEngine(schedule, seed=3)
        ops = [engine.next_op() for _ in range(split + 20)]
        twin = engine.clone()
        twin.fast_forward(split)
        assert [twin.next_op() for _ in range(20)] == ops[split:split + 20]


class TestDynamicEngine:
    def test_phase_hook_fires_in_order(self):
        schedule = PhaseSchedule.from_pattern(
            SMOKE_PROFILES["int_test"], "bursty", period=64
        )
        engine = DynamicWorkloadEngine(schedule)
        seen = []
        engine.phase_hook = lambda ordinal, index, name: seen.append(
            (ordinal, index, name)
        )
        engine.announce()
        for _ in range(200):
            engine.next_op()
        ordinals = [entry[0] for entry in seen]
        assert ordinals == sorted(ordinals)
        assert ordinals == list(range(ordinals[0], ordinals[-1] + 1))
        names = {entry[2] for entry in seen}
        assert names == {"calm", "burst"}

    def test_schedule_signature_tracks_content(self):
        base = SMOKE_PROFILES["int_test"]
        a = PhaseSchedule.from_pattern(base, "bursty", period=512)
        b = PhaseSchedule.from_pattern(base, "bursty", period=1024)
        c = PhaseSchedule.from_pattern(base, "ramp", period=512)
        assert len({a.signature(), b.signature(), c.signature()}) == 3
        assert a.signature() == PhaseSchedule.from_pattern(
            base, "bursty", period=512
        ).signature()

    def test_resolve_rejects_bad_names(self):
        with pytest.raises(WorkloadError, match="pattern"):
            workload_profiles("int_test@nosuchpattern")
        with pytest.raises(WorkloadError):
            workload_profiles("nosuchbase@bursty")
        with pytest.raises(WorkloadError, match="malformed|unknown"):
            workload_profiles("int_test@")

    def test_resolve_smt_pair_gets_schedule_per_thread(self):
        specs = workload_profiles("apsi+swim@steady:512")
        assert len(specs) == 2
        assert {spec.schedule.base_profile.name for spec in specs} == {
            "apsi", "swim",
        }


# ---------------------------------------------------------------------------
# End-to-end: phase-sliced attribution
# ---------------------------------------------------------------------------


class TestPhaseAttribution:
    def test_every_phase_slice_reconciles(self):
        """The acceptance invariant: in a phase-varying run, useful +
        per-loop lost == total within every single phase slice, and the
        slices partition the observed cycles exactly."""
        bus = EventBus()
        config = CoreConfig.base(3)
        attribution = LoopAttribution(bus, config)
        result = simulate(
            "int_test@bursty:2048", config, obs=bus,
            warmup=500, instructions=6_000, detailed_warmup=100,
        )
        report = attribution.report(
            result.stats, workload="int_test@bursty:2048"
        )
        assert report.reconciles
        assert len(report.phases) >= 3
        for phase in report.phases:
            assert phase.reconciles, phase
        assert sum(p.cycles for p in report.phases) == report.total_cycles
        ordinals = [p.index for p in report.phases]
        assert ordinals == sorted(ordinals)
        rendered = report.render()
        assert "Per-phase slices" in rendered
        payload = report.to_dict()
        assert len(payload["phases"]) == len(report.phases)

    def test_phase_events_reach_generic_subscribers(self):
        bus = EventBus()
        seen = []
        bus.subscribe(PhaseEvent, seen.append)
        simulate(
            "int_test@steady:512", CoreConfig.base(3), obs=bus, **RUN
        )
        assert seen, "dynamic run emitted no phase events"
        assert all(event.to_dict()["kind"] == "phase" for event in seen)

    def test_static_workload_reports_no_phases(self):
        bus = EventBus()
        config = CoreConfig.base(3)
        attribution = LoopAttribution(bus, config)
        result = simulate("int_test", config, obs=bus, **RUN)
        report = attribution.report(result.stats)
        assert report.phases == []
        assert report.reconciles


# ---------------------------------------------------------------------------
# Wiring: suites, engines, signatures, cache keys, explore, fuzz
# ---------------------------------------------------------------------------


class TestSuiteResolution:
    def test_scenario_families_resolve(self):
        for name in SCENARIO_PROFILES:
            (profile,) = workload_profiles(name)
            assert profile.name == name

    def test_scenario_pairs_resolve(self):
        for name, parts in SCENARIO_PAIRS.items():
            profiles = workload_profiles(name)
            assert [p.name for p in profiles] == list(parts)

    def test_trace_name_resolves_to_spec(self):
        (spec,) = workload_profiles(f"trace:{GOLDEN_TRACE}")
        assert isinstance(spec, TraceSpec)
        engine = spec.build_engine()
        assert engine.next_op() is not None

    def test_empty_trace_path_rejected(self):
        with pytest.raises(WorkloadError, match="path"):
            workload_profiles("trace:")

    def test_build_engine_for_dispatch(self):
        profile = SMOKE_PROFILES["int_test"]
        assert isinstance(
            build_engine_for(profile, seed=0, thread=0, page_bytes=8192),
            SyntheticTraceGenerator,
        )
        spec = workload_profiles("int_test@steady")[0]
        assert isinstance(
            build_engine_for(spec, seed=0, thread=0, page_bytes=8192),
            DynamicWorkloadEngine,
        )

    def test_new_families_simulate_and_retire(self):
        for name in ("pointer_chase", "interp_dispatch", "server_icache"):
            stats = simulate(
                name, CoreConfig.base(3), warmup=500,
                instructions=400, detailed_warmup=50,
            ).stats
            assert stats.retired >= 400, name

    def test_catalog_covers_everything(self):
        catalog = workload_catalog()
        names = {entry["name"] for entry in catalog["workloads"]}
        assert set(SCENARIO_PROFILES) <= names
        assert set(SCENARIO_PAIRS) <= names
        assert {p["name"] for p in catalog["patterns"]} == set(PATTERNS)


class TestSignaturesAndCacheKeys:
    def test_signature_distinguishes_workloads(self):
        names = ["int_test", "swim", "pointer_chase",
                 "int_test@bursty", "int_test@bursty:512"]
        signatures = [workload_signature(name) for name in names]
        assert len(set(signatures)) == len(signatures)

    def test_signature_stable_across_calls(self):
        assert workload_signature("swim") == workload_signature("swim")

    def test_unresolvable_name_digests_to_constant(self, tmp_path):
        corrupt = tmp_path / "corrupt.trace"
        corrupt.write_bytes(b"\x00\x01 not a trace\n")
        for name in ("doom3", f"trace:{tmp_path / 'missing.trace'}",
                     f"trace:{corrupt}"):
            assert workload_signature(name) == "unresolved", name

    def test_cell_key_tracks_trace_content(self, tmp_path):
        """Same path, different trace bytes => different cache cells."""
        from repro.experiments.runner import ExperimentSettings
        from repro.harness.cache import cell_key

        path = str(tmp_path / "t.trace")
        config = CoreConfig.base(3)
        settings_ = ExperimentSettings(instructions=100)
        capture_trace("int_test", path, 40)
        key_a = cell_key(f"trace:{path}", config, settings_, 0)
        assert key_a == cell_key(f"trace:{path}", config, settings_, 0)
        capture_trace("int_test", path, 40, seed=9)
        key_b = cell_key(f"trace:{path}", config, settings_, 0)
        assert key_a != key_b


class TestExploreAndFuzzWiring:
    def test_pruner_accepts_scenario_workloads(self):
        from repro.explore.prune import AnalyticalPruner

        pruner = AnalyticalPruner(
            ["int_test@bursty", f"trace:{GOLDEN_TRACE}", "pointer_chase"]
        )
        assert all(
            isinstance(profile, WorkloadProfile)
            for profile in pruner.profiles
        )

    def test_fuzz_case_scenario_roundtrip_and_run(self):
        from repro.verify.fuzz import FuzzCase, canonical_cases, run_case

        base = canonical_cases()[0]
        case = FuzzCase(
            seed=base.seed, instructions=600, kind=base.kind,
            rf_read_latency=base.rf_read_latency,
            profile=dict(base.profile),
            scenario={"pattern": "bursty", "period": 256},
        )
        assert FuzzCase.from_dict(case.to_dict()) == case
        assert isinstance(case.build_entry(), DynamicSpec)
        assert run_case(case) is None, "scenario case failed verification"

    def test_fuzz_scenario_shrinks_away(self):
        from dataclasses import replace

        from repro.verify.fuzz import _shrink_scenario, canonical_cases

        # injected failure reproduces without the scenario, so the
        # shrinker must drop it
        base = canonical_cases()[0]
        case = replace(
            base, instructions=250,
            scenario={"pattern": "steady", "period": 512},
        )
        shrunk = _shrink_scenario(case, "skip-reissue", None)
        assert shrunk.scenario == {}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestScenarioCLI:
    def test_workloads_json(self, capsys):
        assert main(["workloads", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert {"workloads", "patterns", "trace"} <= set(catalog)
        families = {entry["family"] for entry in catalog["workloads"]}
        assert "scenario" in families

    def test_trace_capture_then_run(self, capsys, tmp_path):
        path = str(tmp_path / "cli.trace.gz")
        assert main([
            "trace", "capture", "int_test", "-o", path, "--count", "2000",
        ]) == 0
        assert "captured 2000 ops" in capsys.readouterr().out
        assert main([
            "run", f"trace:{path}", "--instructions", "300",
        ]) == 0
        assert "ipc" in capsys.readouterr().out

    def test_trace_capture_argument_errors(self, capsys):
        assert main(["trace", "capture"]) == 2
        assert main(["trace", "capture", "int_test"]) == 2
        capsys.readouterr()

    def test_attribute_dynamic_verifies(self, capsys):
        assert main([
            "attribute", "int_test@bursty:1024",
            "--instructions", "2000", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "Per-phase slices" in out
        assert "reconciles" in out

    def test_run_scenario_family(self, capsys):
        assert main([
            "run", "pointer_chase", "--instructions", "300",
        ]) == 0
        capsys.readouterr()
