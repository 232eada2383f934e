"""Ablation: how the load resolution loop is managed (§2.2.2).

Paper claims: speculating with reissue-from-the-IQ performs best;
recovery by re-fetching "performs significantly worse than reissue"
(bad enough that the paper drops it); stalling load dependents
"effectively adds [IQ->EX] cycles to the load-to-use latency".
"""

from benchmarks.conftest import run_once, save_result
from repro.experiments import recovery_ablation, run_ablations

WORKLOADS = ("compress", "swim", "hydro2d", "apsi")


def test_ablation_recovery_policy(benchmark, settings, results_dir):
    [result], _ = run_once(
        benchmark, run_ablations, [recovery_ablation(WORKLOADS)], settings
    )
    save_result(results_dir, "ablation_recovery", result.render())
    print()
    print(result.render())

    for workload in WORKLOADS:
        reissue = result.relative("reissue", workload)
        refetch = result.relative("refetch", workload)
        stall = result.relative("stall", workload)
        # reissue is the best policy everywhere
        assert reissue >= refetch - 0.01, workload
        assert reissue >= stall - 0.01, workload

    # on the load-loop workloads re-fetch is disastrous
    for workload in ("swim", "hydro2d"):
        assert result.relative("refetch", workload) < 0.9, workload
    # stalling clearly hurts where load-to-use latency is on the
    # critical path; on main-memory-bound codes (hydro2d) the extra
    # IQ->EX cycles hide behind the memory latency, as §3.1 predicts
    assert result.relative("stall", "swim") < 0.98
