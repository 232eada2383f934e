"""Ablation: cluster slotting policy under the DRA.

Dependence-based slotting concentrates a value's consumers in one
cluster — the §5.4 saturation scenario — while round-robin spreads them
and shifts the miss mechanisms toward capacity effects.
"""

from benchmarks.conftest import run_once, save_result
from repro.experiments import slotting_ablation, run_ablations

WORKLOADS = ("swim", "apsi")


def test_ablation_slotting(benchmark, settings, results_dir):
    [result], _ = run_once(
        benchmark, run_ablations, [slotting_ablation(WORKLOADS)], settings
    )
    save_result(results_dir, "ablation_slotting", result.render())
    print()
    print(result.render())

    # both policies run correctly and land in the same ballpark on the
    # parallel code
    assert 0.85 < result.relative("round_robin", "swim") < 1.20

    # apsi's concentrated fan-out makes dependence slotting the
    # operand-miss-prone configuration: spreading consumers round-robin
    # cuts its operand misses and recovers performance
    assert (
        result.aux["dependence"]["apsi"] > result.aux["round_robin"]["apsi"]
    )
    assert result.relative("round_robin", "apsi") > 1.0
