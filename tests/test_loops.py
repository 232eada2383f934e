"""Unit tests for the micro-architectural loop framework (§1)."""

import pytest

from repro.core import CoreConfig
from repro.loops import (
    Loop,
    LoopKind,
    LoopLedgerEntry,
    alpha_21264_loops,
    loops_for_config,
)


class TestLoopArithmetic:
    def test_loop_delay_is_length_plus_feedback(self):
        loop = Loop("x", LoopKind.DATA, "issue", "exec", length=5, feedback_delay=3)
        assert loop.loop_delay == 8

    def test_tight_versus_loose(self):
        tight = Loop("t", LoopKind.DATA, "ex", "ex", length=0, feedback_delay=1)
        loose = Loop("l", LoopKind.DATA, "a", "b", length=1, feedback_delay=1)
        assert tight.is_tight and not tight.is_loose
        assert loose.is_loose and not loose.is_tight

    def test_min_impact_includes_recovery_time(self):
        loop = Loop("x", LoopKind.DATA, "issue", "exec",
                    length=2, feedback_delay=1, recovery_time=4)
        assert loop.min_misspeculation_impact == 7

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            Loop("x", LoopKind.DATA, "a", "b", length=-1, feedback_delay=1)
        with pytest.raises(ValueError):
            Loop("x", LoopKind.DATA, "a", "b", length=1, feedback_delay=-1)


class TestAlpha21264Examples:
    """The worked examples the paper quotes in Section 1."""

    def test_branch_loop_minimum_impact_is_seven_cycles(self):
        loops = {l.name: l for l in alpha_21264_loops()}
        branch = loops["21264_branch_resolution"]
        assert branch.length == 6
        assert branch.feedback_delay == 1
        assert branch.min_misspeculation_impact == 7

    def test_next_line_and_forwarding_are_tight(self):
        loops = {l.name: l for l in alpha_21264_loops()}
        assert loops["21264_next_line_prediction"].is_tight
        assert loops["21264_alu_forwarding"].is_tight

    def test_reorder_trap_recovers_at_fetch(self):
        loops = {l.name: l for l in alpha_21264_loops()}
        trap = loops["21264_load_store_reorder_trap"]
        assert trap.recovery_time > 0


class TestConfigInventory:
    def test_base_load_loop_delay_is_eight(self):
        loops = {l.name: l for l in loops_for_config(CoreConfig.base())}
        assert loops["load_resolution"].loop_delay == 8

    def test_branch_loop_spans_decode_to_execute(self):
        config = CoreConfig.base()
        loops = {l.name: l for l in loops_for_config(config)}
        assert loops["branch_resolution"].length == (
            config.fetch_depth + config.dec_iq + config.iq_ex
        )

    def test_operand_loop_only_with_dra(self):
        base_names = {l.name for l in loops_for_config(CoreConfig.base())}
        dra_names = {l.name for l in loops_for_config(CoreConfig.with_dra())}
        assert "operand_resolution" not in base_names
        assert "operand_resolution" in dra_names

    def test_dra_shrinks_load_loop(self):
        base = {l.name: l for l in loops_for_config(CoreConfig.base(5))}
        dra = {l.name: l for l in loops_for_config(CoreConfig.with_dra(5))}
        assert dra["load_resolution"].loop_delay < base["load_resolution"].loop_delay


class TestLoopCost:
    """The §1 cost model's row, :class:`LoopLedgerEntry`."""

    def test_event_count_is_occurrences_times_rate(self):
        loop = Loop("x", LoopKind.DATA, "a", "b", length=5, feedback_delay=3)
        entry = LoopLedgerEntry(loop=loop, occurrences=1000,
                                misspeculations=50, min_cycles_lost=50 * 8)
        assert entry.misspeculation_rate == pytest.approx(0.05)
        assert entry.occurrences * entry.misspeculation_rate == pytest.approx(
            entry.misspeculations)

    def test_idle_loop_rate_is_zero(self):
        loop = Loop("x", LoopKind.DATA, "a", "b", length=1, feedback_delay=1)
        entry = LoopLedgerEntry(loop=loop, occurrences=0, misspeculations=0,
                                min_cycles_lost=0)
        assert entry.misspeculation_rate == 0.0
