"""Ablation: cluster register cache geometry and policy (§5.1).

Paper claims: "a 16 entry CRC is more than adequate"; mechanisms with
"almost perfect knowledge of which values were needed" gave negligible
improvement over simple FIFO.
"""

from benchmarks.conftest import run_once, save_result
from repro.experiments import crc_ablation, run_ablations

WORKLOADS = ("swim", "apsi")


def test_ablation_crc(benchmark, settings, results_dir):
    [result], _ = run_once(
        benchmark, run_ablations, [crc_ablation(WORKLOADS)], settings
    )
    save_result(results_dir, "ablation_crc", result.render())
    print()
    print(result.render())

    for workload in WORKLOADS:
        # a too-small CRC raises the operand miss rate
        assert (
            result.aux["fifo-4"][workload]
            >= result.aux["fifo-16"][workload]
        ), workload
        # 16 entries is adequate: doubling buys almost nothing
        assert (
            result.relative("fifo-32", workload)
            < result.relative("fifo-16", workload) + 0.02
        ), workload
        # near-oracle replacement over FIFO is a negligible win
        assert (
            result.relative("oracle-16", workload)
            < result.relative("fifo-16", workload) + 0.02
        ), workload
