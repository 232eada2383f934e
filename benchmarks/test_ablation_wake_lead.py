"""Ablation: load-fill wake lead (the mechanism behind Figure 5).

With lead 0 (the paper's semantics) a missed load's dependents reissue
only after the fill and pay a full IQ->EX before executing; larger
leads progressively hide the issue traversal.  If performance rises
with the lead, the IQ->EX segment really is inside the load resolution
loop — the paper's central claim.
"""

from benchmarks.conftest import run_once, save_result
from repro.experiments import wake_lead_ablation, run_ablations

WORKLOADS = ("swim", "turb3d")


def test_ablation_wake_lead(benchmark, settings, results_dir):
    [result], _ = run_once(
        benchmark, run_ablations, [wake_lead_ablation(WORKLOADS)], settings
    )
    save_result(results_dir, "ablation_wake_lead", result.render())
    print()
    print(result.render())

    for workload in WORKLOADS:
        # hiding the IQ->EX traversal after a fill recovers performance
        assert (
            result.relative("lead-12", workload)
            > result.relative("lead-0", workload)
        ), workload
