"""Tests for the experiment drivers (small, fast settings)."""

import pytest

from repro.core import CoreConfig, OperandSource
from repro.experiments import (
    ExperimentSettings,
    iq_size_ablation,
    memdep_ablation,
    recovery_ablation,
    render_loop_inventory,
    run_ablations,
    run_config,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure8,
    run_figure9,
    wake_lead_ablation,
)
from repro.harness import HarnessSettings

TINY = ExperimentSettings(instructions=1200, warmup=15_000, detailed_warmup=300)
WORKLOADS = ("m88ksim", "swim")


# Nothing is memoised across calls, so a figure several tests read is
# built once per module.
@pytest.fixture(scope="module")
def figure5():
    return run_figure5(TINY, workloads=("swim",))


@pytest.fixture(scope="module")
def figure6():
    return run_figure6(TINY)


@pytest.fixture(scope="module")
def figure8():
    return run_figure8(TINY, workloads=("compress",), rf_latencies=(7,))


@pytest.fixture(scope="module")
def figure9():
    return run_figure9(TINY, workloads=("swim",))


class TestRunner:
    def test_cache_key_distinguishes_configs(self, tmp_path):
        # through one cache, a key collision would hand b a's result
        harness = HarnessSettings(cache_dir=str(tmp_path))
        a = run_config("m88ksim", CoreConfig.base(), TINY, harness=harness)
        b = run_config("m88ksim", CoreConfig.base().with_pipe(3, 3), TINY,
                       harness=harness)
        assert a.ipc != b.ipc

    def test_seed_averaging(self):
        settings = ExperimentSettings(
            instructions=600, warmup=5_000, detailed_warmup=100, seeds=(0, 1)
        )
        point = run_config("m88ksim", CoreConfig.base(), settings)
        assert len(point.results) == 2
        ipcs = [r.ipc for r in point.results]
        assert point.ipc == pytest.approx(sum(ipcs) / 2)

    def test_settings_presets(self):
        assert ExperimentSettings.quick().instructions < \
            ExperimentSettings.full().instructions


class TestFigure4:
    def test_shapes_and_reference_point(self):
        result = run_figure4(TINY, workloads=WORKLOADS)
        for workload in WORKLOADS:
            values = result.rows[workload]
            assert len(values) == 4
            assert values[0] == pytest.approx(1.0)

    def test_longer_pipes_lose_performance(self):
        result = run_figure4(TINY, workloads=("compress",))
        assert result.loss_at_longest("compress") > 0.05

    def test_render_mentions_workloads(self):
        result = run_figure4(TINY, workloads=("m88ksim",))
        assert "m88ksim" in result.render()


class TestFigure5:
    def test_reference_point_is_unity(self, figure5):
        assert figure5.rows["swim"][0] == pytest.approx(1.0)

    def test_shorter_iq_ex_does_not_hurt(self, figure5):
        assert figure5.gain_at_best("swim") > -0.02

    def test_render(self, figure5):
        assert "9_3" in figure5.render()


class TestFigure6:
    def test_cdf_properties(self, figure6):
        assert 0.0 < figure6.covered_by_forwarding < 1.0
        assert 0.0 <= figure6.beyond_25_cycles < 0.6
        assert "Figure 6" in figure6.render()

    def test_long_tail_exists(self, figure6):
        assert figure6.cdf.max > 25


class TestFigure8:
    def test_speedup_table_shape(self):
        result = run_figure8(TINY, workloads=("compress",), rf_latencies=(3, 7))
        assert len(result.rows["compress"]) == 2
        assert result.speedup("compress", 7) == result.rows["compress"][1]

    def test_dra_helps_compress(self, figure8):
        assert figure8.speedup("compress", 7) > 1.0

    def test_best_gain(self, figure8):
        assert figure8.best_gain(7) == figure8.speedup("compress", 7) - 1.0


class TestFigure9:
    def test_fractions_sum_to_one(self, figure9):
        total = sum(figure9.rows["swim"].values())
        assert total == pytest.approx(1.0)

    def test_forwarding_dominates(self, figure9):
        assert figure9.fraction("swim", OperandSource.FORWARD) > 0.5

    def test_render(self, figure9):
        assert "fwd buffer" in figure9.render()


@pytest.fixture(scope="module")
def ablations():
    """Four studies on swim, run as one campaign."""
    results, failures = run_ablations(
        [
            recovery_ablation(("swim",)),
            wake_lead_ablation(("swim",), leads=(0, 12)),
            iq_size_ablation(("swim",), sizes=(16, 128)),
            memdep_ablation(("swim",)),
        ],
        TINY,
    )
    assert failures == []
    return dict(zip(("recovery", "wake_lead", "iq_size", "memdep"), results))


class TestAblations:
    def test_recovery_policies_ordered(self, ablations):
        result = ablations["recovery"]
        assert result.relative("reissue", "swim") == pytest.approx(1.0)
        assert result.relative("refetch", "swim") < 1.0
        assert result.relative("stall", "swim") < 1.0

    def test_wake_lead_variants_run(self, ablations):
        result = ablations["wake_lead"]
        assert set(result.variants) == {"lead-0", "lead-12"}
        assert result.relative("lead-0", "swim") == pytest.approx(1.0)

    def test_iq_size_small_queue_throttles(self, ablations):
        result = ablations["iq_size"]
        assert result.relative("iq-16", "swim") < \
            result.relative("iq-128", "swim")

    def test_memdep_variants_run(self, ablations):
        result = ablations["memdep"]
        assert result.aux["conservative"]["swim"] == 0
        assert result.relative("predict", "swim") == pytest.approx(1.0)

    def test_one_study_alone_matches_the_joint_campaign(self, ablations):
        [alone], failures = run_ablations(
            [wake_lead_ablation(("swim",), leads=(0, 12))], TINY
        )
        assert failures == []
        assert alone.render() == ablations["wake_lead"].render()


class TestLoopInventory:
    def test_contains_paper_numbers(self):
        text = render_loop_inventory()
        assert "load_resolution" in text
        assert "21264_branch_resolution" in text

    def test_dra_adds_operand_loop(self):
        text = render_loop_inventory(CoreConfig.with_dra())
        assert "operand_resolution" in text
