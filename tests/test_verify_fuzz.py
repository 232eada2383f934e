"""Tests for the workload fuzzer, shrinker, and reproducer format.

The acceptance bar: pointed at an injected DRA bug, the fuzzer must
find it and shrink the case to a reproducer of at most 50 micro-ops.
"""

import json
import random

import pytest

from repro.errors import ReproError
from repro.verify import (
    INJECTIONS,
    FuzzCase,
    fuzz,
    load_reproducer,
    make_reproducer,
    profile_from_dict,
    profile_to_dict,
    random_case,
    replay,
    run_case,
    shrink,
    write_reproducer,
)
from repro.verify.fuzz import canonical_cases
from repro.workloads import SMOKE_PROFILES, SyntheticTraceGenerator


class TestProfileSerialization:
    def test_round_trip_preserves_stream(self):
        """Serialise -> JSON -> deserialise must regenerate the exact
        stream (including through JSON's key sorting)."""
        original = profile_to_dict(SMOKE_PROFILES["int_test"])
        # force the key reordering a sort_keys dump performs
        reordered = json.loads(json.dumps(original, sort_keys=True))
        a = SyntheticTraceGenerator(
            profile_from_dict(original), seed=11, thread=0
        )
        b = SyntheticTraceGenerator(
            profile_from_dict(reordered), seed=11, thread=0
        )
        for _ in range(300):
            assert a.next_op() == b.next_op()


class TestCaseGeneration:
    def test_random_cases_are_valid_and_run(self):
        rng = random.Random(123)
        for _ in range(12):
            case = random_case(rng, max_instructions=60)
            case.build_config()   # must not raise
            case.build_profile()  # must not raise

    def test_canonical_cases_pass_clean(self):
        for case in canonical_cases(max_instructions=200):
            assert run_case(case) is None


class TestBackendFuzzSmoke:
    """Every exact backend survives the fuzzer's gauntlet."""

    def _exact_backends(self):
        from repro.core.backend import BACKENDS

        return [name for name, kernel in BACKENDS.items() if kernel.exact]

    def test_canonical_cases_clean_on_every_exact_backend(self):
        for backend in self._exact_backends():
            for case in canonical_cases(max_instructions=150):
                failure = run_case(case, backend=backend)
                assert failure is None, (backend, case, failure)

    def test_random_smoke_on_every_exact_backend(self):
        rng = random.Random(777)
        cases = [random_case(rng, max_instructions=50) for _ in range(6)]
        for backend in self._exact_backends():
            for case in cases:
                failure = run_case(case, backend=backend)
                assert failure is None, (backend, failure)

    def test_inexact_backend_refused(self):
        case = canonical_cases(max_instructions=60)[0]
        with pytest.raises(ReproError):
            run_case(case, backend="sampled")

    def test_injection_refused_off_reference(self):
        # the compiled loop inlines the methods injections wrap, so an
        # injected run there would silently plant nothing
        case = canonical_cases(max_instructions=300)[1]
        assert run_case(case, inject="skip-reissue") is not None
        for inject in INJECTIONS:
            with pytest.raises(ReproError, match="plants nothing"):
                run_case(case, inject=inject, backend="optimized")

    def test_case_dict_round_trip(self):
        case = random_case(random.Random(7))
        clone = FuzzCase.from_dict(
            json.loads(json.dumps(case.to_dict(), sort_keys=True))
        )
        assert clone.to_dict() == case.to_dict()


class TestInjections:
    def test_skip_reissue_detected_and_shrunk(self):
        """The acceptance-criteria bug: a skipped reissue must be found
        and shrunk to a <= 50 micro-op reproducer."""
        result = fuzz(budget=60, seed=3, inject="skip-reissue")
        assert result.found, "fuzzer missed the planted skip-reissue bug"
        assert result.failure.kind == "violations"
        assert result.case.instructions <= 50
        # the shrunk case still fails stand-alone
        assert run_case(result.case, inject="skip-reissue") is not None
        # and passes without the planted bug
        assert run_case(result.case) is None

    def test_stale_crc_detected(self):
        result = fuzz(budget=120, seed=2, inject="stale-crc")
        assert result.found, "fuzzer missed the planted stale-CRC bug"
        assert any(
            violation["checker"] == "crc"
            for violation in result.failure.violations
        )

    def test_unknown_injection_rejected(self):
        with pytest.raises(ReproError):
            fuzz(budget=1, inject="no-such-bug")

    def test_injection_registry(self):
        assert set(INJECTIONS) == {"skip-reissue", "stale-crc"}


class TestReproducers:
    def _failing_case(self):
        result = fuzz(budget=60, seed=3, inject="skip-reissue")
        assert result.found
        return result

    def test_write_load_replay_round_trip(self, tmp_path):
        result = self._failing_case()
        path = str(tmp_path / "case.json")
        write_reproducer(
            path,
            make_reproducer(
                result.case, result.failure, inject="skip-reissue"
            ),
        )
        data = load_reproducer(path)
        assert data["version"] == 1
        assert data["inject"] == "skip-reissue"
        assert len(data["micro_ops"]) <= 50
        assert data["failure"]["violations"]
        failure = replay(path)
        assert failure is not None
        assert failure.kind == "violations"

    def test_replay_detects_generator_drift(self, tmp_path):
        result = self._failing_case()
        reproducer = make_reproducer(
            result.case, result.failure, inject="skip-reissue"
        )
        reproducer["micro_ops"][0]["pc"] += 4  # simulate stream drift
        path = str(tmp_path / "case.json")
        write_reproducer(path, reproducer)
        with pytest.raises(ReproError, match="diverges"):
            replay(path)

    def test_version_gate(self, tmp_path):
        path = str(tmp_path / "case.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"version": 99}, handle)
        with pytest.raises(ReproError, match="version"):
            load_reproducer(path)


class TestShrinker:
    def test_shrink_requires_failing_case(self):
        case = canonical_cases(max_instructions=100)[0]
        with pytest.raises(ValueError):
            shrink(case)

    def test_shrink_preserves_failure_and_reduces(self):
        case = canonical_cases(max_instructions=300)[1]  # DRA machine
        assert run_case(case, inject="skip-reissue") is not None
        shrunk = shrink(case, inject="skip-reissue")
        assert shrunk.instructions <= case.instructions
        assert run_case(shrunk, inject="skip-reissue") is not None
