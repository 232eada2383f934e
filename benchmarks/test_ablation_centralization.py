"""Ablation: one central register cache vs the distributed CRCs (§4).

Paper claim: "Register caches must be small to reduce access latency ...
A small register cache results in a high miss rate for our base
architecture ... a register cache may need to be of comparable size to
a register file to hold all the relevant information."  The DRA's
answer is distribution: eight 16-entry CRCs fed by filtered insertion.
"""

from benchmarks.conftest import run_once, save_result
from repro.experiments import centralization_ablation, run_ablations

WORKLOADS = ("swim", "compress", "turb3d")


def test_ablation_centralization(benchmark, settings, results_dir):
    [result], _ = run_once(
        benchmark, run_ablations, [centralization_ablation(WORKLOADS)], settings
    )
    save_result(results_dir, "ablation_centralization", result.render())
    print()
    print(result.render())

    for workload in WORKLOADS:
        # one small central cache misses far more than the distributed CRCs
        assert (
            result.aux["central-16"][workload]
            > 1.5 * result.aux["distributed-8x16"][workload]
        ), workload
        # and costs performance
        assert (
            result.relative("central-16", workload)
            < result.relative("distributed-8x16", workload)
        ), workload
        # register-file-class capacity recovers the miss rate — the
        # "comparable size to a register file" observation
        assert (
            result.aux["central-128"][workload]
            < result.aux["central-16"][workload]
        ), workload
