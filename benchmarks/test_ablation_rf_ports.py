"""Ablation: register-file read ports (§2.1).

Paper claim: "The full port capability is not needed in most cases
because either the operands are forwarded from the execution units, or
the number of instructions issued is less than 8, or not all
instructions have 2 input operands" — i.e. moderately reduced ports
cost little bandwidth (the paper keeps full ports for complexity
reasons, not bandwidth ones).
"""

from benchmarks.conftest import run_once, save_result
from repro.experiments import rf_ports_ablation, run_ablations

WORKLOADS = ("m88ksim", "swim")


def test_ablation_rf_ports(benchmark, settings, results_dir):
    [result], _ = run_once(
        benchmark, run_ablations, [rf_ports_ablation(WORKLOADS)], settings
    )
    save_result(results_dir, "ablation_rf_ports", result.render())
    print()
    print(result.render())

    for workload in WORKLOADS:
        # halving the ports costs very little bandwidth (§2.1's point)
        assert result.relative("ports-8", workload) > 0.96, workload
        # but a severely port-starved issue stage does lose performance
        assert (
            result.relative("ports-4", workload)
            <= result.relative("ports-16", workload) + 0.01
        ), workload
