"""Ablation: memory dependence loop management (paper Figure 2).

The memory dependence loop is in the paper's loop inventory with the
load/store reorder trap as §1's example of recovery at fetch.  Shape
asserted here: store-wait prediction traps less than always-speculating,
beats never-speculating, and approaches perfect disambiguation.
"""

from benchmarks.conftest import run_once, save_result
from repro.experiments import memdep_ablation, run_ablations

WORKLOADS = ("compress", "swim")


def test_ablation_memdep(benchmark, settings, results_dir):
    [result], _ = run_once(
        benchmark, run_ablations, [memdep_ablation(WORKLOADS)], settings
    )
    save_result(results_dir, "ablation_memdep", result.render())
    print()
    print(result.render())

    for workload in WORKLOADS:
        # prediction keeps traps at or below the naive policy
        assert (
            result.aux["predict"][workload]
            <= result.aux["naive"][workload]
        ), workload
        # conservative ordering never traps but costs performance
        assert result.aux["conservative"][workload] == 0, workload
        assert (
            result.relative("predict", workload)
            >= result.relative("conservative", workload) - 0.01
        ), workload
        # perfect disambiguation is the (unreachable) upper bound
        assert (
            result.relative("disabled", workload)
            >= result.relative("predict", workload) - 0.02
        ), workload
