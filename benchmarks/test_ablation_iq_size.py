"""Ablation: issue-queue capacity vs retention pressure (§2.2.2).

Issued instructions hold their IQ entries for a loop delay after issue;
the paper warns that near peak throughput "more than half the entries
in the IQ may be already issued instructions".  Shrinking the queue
makes that retention bind.
"""

from benchmarks.conftest import run_once, save_result
from repro.experiments import iq_size_ablation, run_ablations

WORKLOADS = ("swim", "compress")


def test_ablation_iq_size(benchmark, settings, results_dir):
    [result], _ = run_once(
        benchmark, run_ablations, [iq_size_ablation(WORKLOADS)], settings
    )
    save_result(results_dir, "ablation_iq_size", result.render())
    print()
    print(result.render())

    for workload in WORKLOADS:
        # a 32-entry queue clearly throttles an 8-wide machine
        assert result.relative("iq-32", workload) < \
            result.relative("iq-128", workload), workload
        # doubling past 128 buys little (the paper's base is adequate)
        assert result.relative("iq-256", workload) < \
            result.relative("iq-128", workload) + 0.05, workload
        # issued-waiting entries are a real fraction of the queue
        assert result.aux["iq-128"][workload] > 1.0, workload
