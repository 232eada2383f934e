"""Tests for the differential verification subsystem.

Three layers: unit tests driving each invariant checker with synthetic
event streams (both clean and deliberately broken), oracle unit tests,
and end-to-end verified simulations over the machine presets.
"""

import os
import pickle

import pytest

from repro import CoreConfig, simulate
from repro.errors import (
    ReproError,
    VerificationError,
    WorkloadError,
    is_retryable,
)
from repro.obs.bus import EventBus
from repro.obs.events import (
    CompleteEvent,
    CRCEvent,
    DropEvent,
    ExecuteEvent,
    FetchEvent,
    IssueEvent,
    ReissueEvent,
    RenameEvent,
    RetireEvent,
    SquashEvent,
    WritebackEvent,
)
from repro.verify import (
    ConservationChecker,
    CRCCoherenceChecker,
    DataflowChecker,
    RenameChecker,
    Verifier,
    dra_variant,
    verified_simulate,
    verify_presets,
)
from repro.verify.differential import (
    check_dra_base_equivalence,
    check_stall_recovery,
)


def _fetch(bus, uid, cycle=0):
    bus.emit(FetchEvent(cycle=cycle, uid=uid, thread=0, pc=0x1000,
                        opclass="int_alu"))


# ---------------------------------------------------------------------------
# ConservationChecker
# ---------------------------------------------------------------------------


class TestConservationChecker:
    def _attach(self):
        bus = EventBus()
        checker = ConservationChecker()
        checker.attach(bus)
        return bus, checker

    def test_clean_lifecycles(self):
        bus, checker = self._attach()
        for uid, end in ((1, "retire"), (2, "squash"), (3, "drop"),
                         (4, None)):
            _fetch(bus, uid)
        bus.emit(RetireEvent(cycle=5, uid=1, thread=0))
        bus.emit(SquashEvent(cycle=5, uid=2, thread=0, reason="branch"))
        bus.emit(DropEvent(cycle=5, uid=3, thread=0))
        checker.finish()
        assert checker.violation_count == 0
        assert checker.in_flight == 1

    def test_double_retire_flagged(self):
        bus, checker = self._attach()
        _fetch(bus, 1)
        bus.emit(RetireEvent(cycle=1, uid=1, thread=0))
        bus.emit(RetireEvent(cycle=2, uid=1, thread=0))
        assert checker.violation_count == 1
        assert "already retired" in checker.violations[0].message

    def test_retire_after_squash_flagged(self):
        bus, checker = self._attach()
        _fetch(bus, 1)
        bus.emit(SquashEvent(cycle=1, uid=1, thread=0, reason="branch"))
        bus.emit(RetireEvent(cycle=2, uid=1, thread=0))
        assert checker.violation_count == 1

    def test_retire_without_fetch_flagged(self):
        bus, checker = self._attach()
        bus.emit(RetireEvent(cycle=1, uid=9, thread=0))
        assert checker.violation_count == 1
        assert "without fetch" in checker.violations[0].message


# ---------------------------------------------------------------------------
# RenameChecker
# ---------------------------------------------------------------------------


def _rename(bus, uid, arch, dst, prev, cycle=0, srcs=(), preread=()):
    bus.emit(RenameEvent(
        cycle=cycle, uid=uid, thread=0, arch_dst=arch, dst_preg=dst,
        prev_dst_preg=prev, src_pregs=tuple(srcs), preread=tuple(preread),
    ))


class TestRenameChecker:
    def _attach(self):
        bus = EventBus()
        checker = RenameChecker()
        checker.attach(bus)
        return bus, checker

    def test_clean_chain_and_rollback(self):
        bus, checker = self._attach()
        _rename(bus, 1, arch=5, dst=100, prev=50)
        _rename(bus, 2, arch=5, dst=101, prev=100)
        # youngest-first rollback
        bus.emit(SquashEvent(cycle=3, uid=2, thread=0, reason="branch"))
        bus.emit(SquashEvent(cycle=3, uid=1, thread=0, reason="branch"))
        # the map rolled back to 50, so the next writer chains from it
        _rename(bus, 3, arch=5, dst=102, prev=50, cycle=4)
        assert checker.violation_count == 0

    def test_broken_prev_chain_flagged(self):
        bus, checker = self._attach()
        _rename(bus, 1, arch=5, dst=100, prev=50)
        _rename(bus, 2, arch=5, dst=101, prev=99)  # should be 100
        assert checker.violation_count == 1
        assert "does not chain" in checker.violations[0].message

    def test_reallocation_while_live_flagged(self):
        bus, checker = self._attach()
        _rename(bus, 1, arch=5, dst=100, prev=50)
        _rename(bus, 2, arch=6, dst=100, prev=60)  # 100 still in flight
        assert checker.violation_count == 1
        assert "re-allocated" in checker.violations[0].message

    def test_out_of_order_rollback_flagged(self):
        bus, checker = self._attach()
        _rename(bus, 1, arch=5, dst=100, prev=50)
        _rename(bus, 2, arch=5, dst=101, prev=100)
        # squashing the older writer first is out of order
        bus.emit(SquashEvent(cycle=3, uid=1, thread=0, reason="branch"))
        assert checker.violation_count == 1
        assert "rollback out of order" in checker.violations[0].message

    def test_retire_frees_previous_mapping(self):
        bus, checker = self._attach()
        _rename(bus, 1, arch=5, dst=100, prev=50)
        bus.emit(RetireEvent(cycle=2, uid=1, thread=0))
        # 50 was freed at retire, so re-allocating it is legal
        _rename(bus, 2, arch=7, dst=50, prev=70, cycle=3)
        assert checker.violation_count == 0


# ---------------------------------------------------------------------------
# DataflowChecker
# ---------------------------------------------------------------------------


class TestDataflowChecker:
    def _attach(self):
        bus = EventBus()
        checker = DataflowChecker()
        checker.attach(bus)
        return bus, checker

    def test_clean_execute_and_reissue_cycle(self):
        bus, checker = self._attach()
        # producer writes preg 10
        _rename(bus, 1, arch=1, dst=10, prev=5)
        bus.emit(IssueEvent(cycle=1, uid=1, thread=0, epoch=1))
        bus.emit(ExecuteEvent(cycle=3, uid=1, thread=0, epoch=1, ok=True))
        bus.emit(CompleteEvent(cycle=3, uid=1, thread=0, avail_cycle=4))
        # consumer reads preg 10, fails once, reissues, then succeeds
        _rename(bus, 2, arch=2, dst=11, prev=6, srcs=(10,))
        bus.emit(IssueEvent(cycle=2, uid=2, thread=0, epoch=1))
        bus.emit(ExecuteEvent(cycle=3, uid=2, thread=0, epoch=1, ok=False))
        bus.emit(ReissueEvent(cycle=3, uid=2, thread=0, cause="load_miss"))
        bus.emit(IssueEvent(cycle=6, uid=2, thread=0, epoch=2))
        bus.emit(ExecuteEvent(cycle=8, uid=2, thread=0, epoch=2, ok=True))
        bus.emit(CompleteEvent(cycle=8, uid=2, thread=0, avail_cycle=9))
        bus.emit(RetireEvent(cycle=10, uid=1, thread=0))
        bus.emit(RetireEvent(cycle=11, uid=2, thread=0))
        checker.finish()
        assert checker.violation_count == 0

    def test_execute_with_unavailable_source_flagged(self):
        bus, checker = self._attach()
        _rename(bus, 1, arch=1, dst=10, prev=5)       # never completes
        _rename(bus, 2, arch=2, dst=11, prev=6, srcs=(10,))
        bus.emit(IssueEvent(cycle=2, uid=2, thread=0, epoch=1))
        bus.emit(ExecuteEvent(cycle=4, uid=2, thread=0, epoch=1, ok=True))
        assert checker.violation_count == 1
        assert "unavailable operand" in checker.violations[0].message

    def test_reissue_without_failed_execute_flagged(self):
        bus, checker = self._attach()
        _rename(bus, 1, arch=1, dst=10, prev=5)
        bus.emit(ReissueEvent(cycle=4, uid=1, thread=0, cause="load_miss"))
        assert any(
            "without a same-cycle failed execute" in v.message
            for v in checker.violations
        )

    def test_retire_with_open_reissue_flagged(self):
        bus, checker = self._attach()
        _rename(bus, 1, arch=1, dst=10, prev=5, srcs=())
        bus.emit(IssueEvent(cycle=1, uid=1, thread=0, epoch=1))
        bus.emit(ExecuteEvent(cycle=3, uid=1, thread=0, epoch=1, ok=False))
        bus.emit(ReissueEvent(cycle=3, uid=1, thread=0, cause="dependent"))
        bus.emit(CompleteEvent(cycle=5, uid=1, thread=0, avail_cycle=6))
        bus.emit(RetireEvent(cycle=7, uid=1, thread=0))
        assert any(
            "unresolved replay" in v.message for v in checker.violations
        )

    def test_unpaired_failed_execute_flagged_at_finish(self):
        bus, checker = self._attach()
        _rename(bus, 1, arch=1, dst=10, prev=5)
        bus.emit(IssueEvent(cycle=1, uid=1, thread=0, epoch=1))
        bus.emit(ExecuteEvent(cycle=3, uid=1, thread=0, epoch=1, ok=False))
        checker.finish()
        assert any(
            "never produced its ReissueEvent" in v.message
            for v in checker.violations
        )

    def test_issue_epoch_must_increment(self):
        bus, checker = self._attach()
        _rename(bus, 1, arch=1, dst=10, prev=5)
        bus.emit(IssueEvent(cycle=1, uid=1, thread=0, epoch=1))
        bus.emit(IssueEvent(cycle=4, uid=1, thread=0, epoch=3))
        assert any(
            "does not follow" in v.message for v in checker.violations
        )

    def test_squash_pops_youngest_writer(self):
        bus, checker = self._attach()
        _rename(bus, 1, arch=1, dst=10, prev=5)
        _rename(bus, 2, arch=1, dst=12, prev=10)
        bus.emit(SquashEvent(cycle=3, uid=2, thread=0, reason="branch"))
        # preg 10's writer (uid 1) completes; a consumer may then read it
        bus.emit(CompleteEvent(cycle=4, uid=1, thread=0, avail_cycle=5))
        _rename(bus, 3, arch=2, dst=13, prev=6, srcs=(10,), cycle=5)
        bus.emit(IssueEvent(cycle=5, uid=3, thread=0, epoch=1))
        bus.emit(ExecuteEvent(cycle=7, uid=3, thread=0, epoch=1, ok=True))
        assert checker.violation_count == 0


# ---------------------------------------------------------------------------
# CRCCoherenceChecker
# ---------------------------------------------------------------------------


class TestCRCCoherenceChecker:
    def _attach(self):
        bus = EventBus()
        checker = CRCCoherenceChecker()
        checker.attach(bus)
        return bus, checker

    def test_clean_insert_hit_invalidate(self):
        bus, checker = self._attach()
        _rename(bus, 1, arch=1, dst=10, prev=5)
        bus.emit(WritebackEvent(cycle=4, preg=10))
        bus.emit(CRCEvent(cycle=4, preg=10, cluster=0, action="insert"))
        bus.emit(CRCEvent(cycle=5, preg=10, cluster=0, action="hit"))
        # re-allocation invalidates before the version bumps
        bus.emit(CRCEvent(cycle=6, preg=10, cluster=0, action="invalidate"))
        _rename(bus, 2, arch=1, dst=10, prev=99, cycle=6)
        bus.emit(CRCEvent(cycle=7, preg=10, cluster=0, action="miss"))
        assert checker.violation_count == 0

    def test_stale_hit_flagged(self):
        bus, checker = self._attach()
        _rename(bus, 1, arch=1, dst=10, prev=5)
        bus.emit(WritebackEvent(cycle=4, preg=10))
        bus.emit(CRCEvent(cycle=4, preg=10, cluster=0, action="insert"))
        # re-allocation WITHOUT the §5.5 invalidate...
        _rename(bus, 2, arch=1, dst=10, prev=99, cycle=6)
        # ...so this hit returns the old version
        bus.emit(CRCEvent(cycle=7, preg=10, cluster=0, action="hit"))
        assert checker.violation_count == 1
        assert "stale CRC hit" in checker.violations[0].message

    def test_preread_of_incomplete_value_flagged(self):
        bus, checker = self._attach()
        _rename(bus, 1, arch=1, dst=10, prev=5)  # version 1, no writeback
        _rename(bus, 2, arch=2, dst=11, prev=6, srcs=(10,), preread=(True,),
                cycle=2)
        assert checker.violation_count == 1
        assert "pre-read granted" in checker.violations[0].message

    def test_missed_preread_of_committed_value_flagged(self):
        bus, checker = self._attach()
        # preg 7 was never re-allocated: initial committed state
        _rename(bus, 1, arch=2, dst=11, prev=6, srcs=(7,), preread=(False,))
        assert checker.violation_count == 1
        assert "RPFT filtered" in checker.violations[0].message

    def test_hit_on_nonresident_flagged(self):
        bus, checker = self._attach()
        bus.emit(CRCEvent(cycle=3, preg=10, cluster=2, action="hit"))
        assert checker.violation_count == 1
        assert "non-resident" in checker.violations[0].message


# ---------------------------------------------------------------------------
# Golden retire model (oracle) — unit level
# ---------------------------------------------------------------------------


class TestGoldenRetireModel:
    def test_catches_forged_retirement_state(self):
        """Flipping a retired instruction's flags trips the oracle."""
        from repro.verify import GoldenRetireModel
        from repro.core.pipeline import Simulator
        from repro.workloads import SMOKE_PROFILES

        simulator = Simulator(
            CoreConfig.base(), [SMOKE_PROFILES["int_test"]], seed=0
        )
        oracle = GoldenRetireModel()
        oracle.attach(simulator)
        # wrap the oracle's hook to corrupt one instruction pre-check
        state = {"armed": True}
        hook = simulator.retire_hook

        def corrupting(inst):
            if state["armed"]:
                state["armed"] = False
                inst.confirmed = False
            hook(inst)

        simulator.retire_hook = corrupting
        simulator.run(300, max_cycles=50_000)
        assert oracle.violation_count >= 1
        assert any(
            "illegal state" in v.message for v in oracle.violations
        )

    def test_stream_divergence_detected(self):
        """An oracle seeded differently sees instant stream divergence."""
        from repro.verify import GoldenRetireModel
        from repro.core.pipeline import Simulator
        from repro.workloads import SMOKE_PROFILES

        simulator = Simulator(
            CoreConfig.base(), [SMOKE_PROFILES["int_test"]], seed=0
        )
        oracle = GoldenRetireModel()
        oracle.attach(simulator)
        # corrupt the reference stream by skipping one op
        oracle._reference[0].next_op()
        simulator.run(100, max_cycles=50_000)
        assert oracle.violation_count >= 1
        assert any("diverges" in v.message for v in oracle.violations)


# ---------------------------------------------------------------------------
# End-to-end verified runs
# ---------------------------------------------------------------------------


class TestVerifiedRuns:
    @pytest.mark.parametrize("config", [
        CoreConfig.base(),
        CoreConfig.with_dra(),
    ], ids=["base", "dra"])
    def test_clean_run_passes_all_checks(self, config):
        result, verifier = verified_simulate(
            "int_test", config, instructions=1200, warmup=20_000,
            detailed_warmup=300,
        )
        assert verifier.passed, verifier.report()
        assert verifier.oracle.retired_checked >= 1500
        assert result.stats.retired >= 1500
        verifier.raise_if_failed()  # must not raise

    def test_smt_run_passes(self):
        """Two hardware threads: per-thread oracles, shared checkers."""
        result, verifier = verified_simulate(
            "m88ksim+compress", CoreConfig.with_dra(), instructions=1200,
            warmup=10_000, detailed_warmup=300,
        )
        assert verifier.passed, verifier.report()

    def test_preset_sweep_is_clean(self):
        entries = verify_presets(
            instructions=800, warmup=10_000, detailed_warmup=200,
            presets=["base"],
        )
        assert len(entries) == 2  # base machine + DRA variant
        for entry in entries:
            assert entry.ok, entry.describe()
            assert entry.retirements > 0

    def test_dra_variant_keeps_geometry(self):
        from repro.presets import preset

        for name in ("alpha21264", "base", "pentium4"):
            config = preset(name)
            variant = dra_variant(config)
            assert variant.dra is not None
            assert variant.dec_iq == config.dec_iq
            assert variant.iq_ex == config.iq_ex

    def test_raise_if_failed_carries_violations(self):
        verifier = Verifier(oracle=False, invariants=False,
                            attribution=False)
        from repro.verify import Violation

        verifier.violations = [
            Violation(checker="t", cycle=1, message="broken"),
        ]
        verifier.violation_count = 1
        with pytest.raises(VerificationError) as excinfo:
            verifier.raise_if_failed(context="unit")
        assert "unit" in str(excinfo.value)
        assert excinfo.value.violations[0].message == "broken"


# ---------------------------------------------------------------------------
# Differential checks (fast subset; the full matrix runs in CI)
# ---------------------------------------------------------------------------


MINI_TRACE = os.path.join(
    os.path.dirname(__file__), "golden", "mini_int_test.trace.gz"
)


def _exact_backends():
    from repro.core.backend import available_backends, get_backend

    return [n for n in available_backends() if get_backend(n).exact]


class TestDifferentialChecks:
    @pytest.mark.parametrize("backend", _exact_backends())
    def test_infinite_crc_dra_equals_base(self, backend):
        check = check_dra_base_equivalence(
            instructions=1000, warmup=10_000, detailed_warmup=200,
            backend=backend,
        )
        assert check.passed, f"[{backend}] {check.detail}"

    @pytest.mark.parametrize("backend", _exact_backends())
    def test_stall_recovery_is_silent(self, backend):
        check = check_stall_recovery(
            "base", instructions=800, warmup=10_000, detailed_warmup=200,
            backend=backend,
        )
        assert check.passed, f"[{backend}] {check.detail}"

    @pytest.mark.parametrize("backend", _exact_backends())
    def test_ssr_zero_threshold_equals_stall(self, backend):
        from repro.verify import check_ssr_zero_threshold

        check = check_ssr_zero_threshold(
            instructions=800, warmup=10_000, detailed_warmup=200,
            backend=backend,
        )
        assert check.passed, f"[{backend}] {check.detail}"

    @pytest.mark.parametrize("backend", _exact_backends())
    def test_sufficient_ports_equal_unlimited(self, backend):
        from repro.verify import check_port_sufficiency

        check = check_port_sufficiency(
            instructions=800, warmup=10_000, detailed_warmup=200,
            backend=backend,
        )
        assert check.passed, f"[{backend}] {check.detail}"

    @pytest.mark.parametrize("backend", _exact_backends())
    def test_warm_restore_on_every_golden_cell(self, backend):
        from repro.perfhist.profile import GOLDEN_RUN, golden_cells
        from repro.verify import check_warm_restore

        run = dict(GOLDEN_RUN)
        check = check_warm_restore(
            run.pop("workload"), [config for _, config in golden_cells()],
            backend=backend, **run,
        )
        assert check.passed, f"[{backend}] {check.detail}"

    @pytest.mark.parametrize("backend", _exact_backends())
    @pytest.mark.parametrize("workload", [
        "go+su2cor", f"trace:{MINI_TRACE}", "int_test@bursty",
    ], ids=["smt-pair", "mini-trace", "bursty"])
    def test_warm_restore_on_scenarios(self, workload, backend):
        from repro.verify import check_warm_restore

        check = check_warm_restore(
            workload, instructions=600, warmup=4_000, detailed_warmup=100,
            backend=backend,
        )
        assert check.passed, f"[{backend}] {check.detail}"


# ---------------------------------------------------------------------------
# Error-hierarchy cleanup (the WorkloadError-is-a-KeyError wart)
# ---------------------------------------------------------------------------


class TestWorkloadErrorCleanup:
    def test_unknown_workload_raises_workload_error(self):
        with pytest.raises(WorkloadError) as excinfo:
            simulate("no_such_benchmark", instructions=10, warmup=0)
        # clean message, not KeyError's quoted-repr formatting
        assert "unknown workload" in str(excinfo.value)
        assert "no_such_benchmark" in str(excinfo.value)

    def test_workload_error_is_no_longer_a_keyerror(self):
        """The one-release ``WorkloadKeyError`` shim has been deleted."""
        error = WorkloadError("boom")
        assert isinstance(error, ReproError)
        assert not isinstance(error, KeyError)
        assert str(error) == "boom"
        assert not hasattr(
            __import__("repro.errors", fromlist=[""]), "WorkloadKeyError"
        )

    def test_verification_error_not_retryable(self):
        assert not is_retryable(VerificationError("x"))
        error = VerificationError("x")
        assert error.violations == ()
        assert pickle.loads(pickle.dumps(error)).args == error.args


# ---------------------------------------------------------------------------
# Harness integration
# ---------------------------------------------------------------------------


class TestHarnessVerify:
    def _cell(self):
        from repro.experiments import ExperimentSettings
        from repro.harness import Cell

        return Cell(
            workload="int_test",
            config=CoreConfig.with_dra(),
            settings=ExperimentSettings(instructions=600),
            seed=0,
        )

    def test_verified_cell_passes(self):
        from repro.harness import HarnessSettings, run_cell

        outcome = run_cell(self._cell(), harness=HarnessSettings(verify=True))
        assert outcome.ok

    def test_verify_is_execution_policy_not_cell_identity(self):
        """Verification must not change the cache key."""
        cell = self._cell()
        key_plain = cell.key
        # the key is a pure function of (workload, config, settings,
        # seed); HarnessSettings.verify is not part of it
        assert cell.key == key_plain
