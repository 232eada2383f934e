"""Ablation: forwarding-buffer depth under the DRA (§4 / Figure 6).

Paper claims: the forwarding buffer is "an integral part" of the
design — timely operands are the single largest operand source — so
shrinking the window shifts traffic onto the CRCs and the operand
resolution loop.
"""

from benchmarks.conftest import run_once, save_result
from repro.experiments import forwarding_ablation, run_ablations

WORKLOADS = ("swim", "compress")


def test_ablation_forwarding(benchmark, settings, results_dir):
    [result], _ = run_once(
        benchmark, run_ablations, [forwarding_ablation(WORKLOADS)], settings
    )
    save_result(results_dir, "ablation_forwarding", result.render())
    print()
    print(result.render())

    for workload in WORKLOADS:
        # a deeper window serves more operands from the forwarding buffer
        assert (
            result.aux["fb-15"][workload] > result.aux["fb-3"][workload]
        ), workload
        # a shallow window costs performance
        assert (
            result.relative("fb-3", workload)
            <= result.relative("fb-9", workload) + 0.01
        ), workload
