#!/usr/bin/env python3
"""Scenario: evaluating the DRA across the register-file design space.

As wire delays push register-file reads from 3 toward 7 cycles, the
base machine's issue-to-execute path stretches and the load resolution
loop gets looser.  This study reproduces Figures 8 and 9 on a subset of
workloads and then walks the CRC design space (the §5.1 discussion).

Usage::

    python examples/dra_design_space.py [workload ...]
"""

import sys

from repro.experiments import (
    ExperimentSettings,
    crc_ablation,
    run_ablations,
    run_figure8,
    run_figure9,
)

DEFAULT_WORKLOADS = ("compress", "swim", "turb3d", "apsi")


def main() -> None:
    workloads = tuple(sys.argv[1:]) or DEFAULT_WORKLOADS
    settings = ExperimentSettings(instructions=8_000)

    fig8 = run_figure8(settings, workloads=workloads)
    print(fig8.render())
    print()
    for rf in fig8.rf_latencies:
        print(f"rf={rf} cycles: best DRA gain {fig8.best_gain(rf):+.1%}")
    if "apsi" in workloads:
        print(
            f"apsi at rf=7: {fig8.speedup('apsi', 7) - 1:+.1%} "
            f"(operand miss rate {fig8.miss_rates['apsi'][-1]:.2%} — the "
            f"operand resolution loop fighting back)"
        )
    print()

    fig9 = run_figure9(settings, workloads=workloads)
    print(fig9.render())
    print()

    [crc], _ = run_ablations([crc_ablation(workloads[:2])], settings)
    print(crc.render())
    print()
    print("operand miss rates by CRC variant:")
    for variant in crc.variants:
        rates = ", ".join(
            f"{w}={crc.aux[variant][w]:.2%}" for w in workloads[:2]
        )
        print(f"  {variant:>10s}: {rates}")


if __name__ == "__main__":
    main()
