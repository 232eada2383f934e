"""Ablation: branch predictor choice (the branch loop's rate term).

The §1 cost model: lost cycles = occurrences x mis-speculation rate x
impact.  Pipeline length sets the impact; the predictor sets the rate.
Shape asserted: trained predictors beat static-taken on branchy codes,
and the tournament hybrid is at least as good as its components.
"""

from benchmarks.conftest import run_once, save_result
from repro.experiments import predictor_ablation, run_ablations

WORKLOADS = ("compress", "go", "m88ksim")


def test_ablation_predictor(benchmark, settings, results_dir):
    [result], _ = run_once(
        benchmark, run_ablations, [predictor_ablation(WORKLOADS)], settings
    )
    save_result(results_dir, "ablation_predictor", result.render())
    print()
    print(result.render())

    for workload in ("compress", "go"):
        # per-site predictors clearly beat always-taken on branchy codes
        # (gshare is excluded: with sites interleaved at random, global
        # history carries no information and pure gshare degenerates —
        # which is exactly why the machine uses a tournament)
        for kind in ("bimodal", "local", "tournament"):
            assert (
                result.rows[kind][workload]
                > result.rows["taken"][workload]
            ), (kind, workload)
        # better prediction = lower measured mispredict rate
        assert (
            result.aux["tournament"][workload]
            < result.aux["taken"][workload]
        ), workload

    # the chooser keeps the hybrid close to its best component even
    # when one component (gshare) is degenerate
    for workload in WORKLOADS:
        best_component = max(
            result.rows["bimodal"][workload],
            result.rows["gshare"][workload],
        )
        assert result.rows["tournament"][workload] > best_component - 0.08, \
            workload
        assert result.rows["tournament"][workload] > \
            result.rows["gshare"][workload], workload
