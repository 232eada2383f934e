"""Experiment drivers.

One module per artefact of the paper's evaluation:

* :mod:`repro.experiments.fig4` — speedup vs decode-to-execute length.
* :mod:`repro.experiments.fig5` — fixed-total-latency pipeline balance.
* :mod:`repro.experiments.fig6` — operand-availability-gap CDF.
* :mod:`repro.experiments.fig8` — DRA vs base speedups.
* :mod:`repro.experiments.fig9` — operand-source breakdown.
* :mod:`repro.experiments.ablations` — the prose-claim studies (recovery
  policy, CRC, FB, ...), all run as one campaign.
* :mod:`repro.experiments.loop_inventory` — the §1 loop framework tables.

All drivers accept an :class:`ExperimentSettings` so tests, benchmarks
and the CLI can trade fidelity for runtime.
"""

from repro.experiments.runner import (
    Campaign,
    ExperimentSettings,
    RunPoint,
    render_failure_report,
    run_campaign,
    run_config,
)
from repro.experiments.fig4 import Figure4Result, run_figure4
from repro.experiments.fig5 import Figure5Result, run_figure5
from repro.experiments.fig6 import Figure6Result, run_figure6
from repro.experiments.fig8 import Figure8Result, run_figure8
from repro.experiments.fig9 import Figure9Result, run_figure9
from repro.experiments.ablations import (
    ABLATIONS,
    centralization_ablation,
    crc_ablation,
    forwarding_ablation,
    iq_size_ablation,
    memdep_ablation,
    predictor_ablation,
    recovery_ablation,
    rf_ports_ablation,
    run_ablations,
    slotting_ablation,
    wake_lead_ablation,
)
from repro.experiments.loop_inventory import render_loop_inventory

__all__ = [
    "Campaign",
    "ExperimentSettings",
    "RunPoint",
    "render_failure_report",
    "run_campaign",
    "run_config",
    "run_figure4",
    "Figure4Result",
    "run_figure5",
    "Figure5Result",
    "run_figure6",
    "Figure6Result",
    "run_figure8",
    "Figure8Result",
    "run_figure9",
    "Figure9Result",
    "ABLATIONS",
    "run_ablations",
    "recovery_ablation",
    "crc_ablation",
    "forwarding_ablation",
    "slotting_ablation",
    "centralization_ablation",
    "memdep_ablation",
    "wake_lead_ablation",
    "iq_size_ablation",
    "rf_ports_ablation",
    "predictor_ablation",
    "render_loop_inventory",
]
