"""Ablation studies for the design choices the paper discusses in prose.

* **Load-miss recovery policy** (§2.2.2): reissue ≫ refetch, and both
  beat stalling — the paper dismisses re-fetch after finding it
  "performs significantly worse than reissue".
* **CRC geometry and policy** (§5.1): a 16-entry FIFO CRC is "more than
  adequate"; near-oracle replacement buys almost nothing.
* **Forwarding-buffer depth** (§4 / Figure 6): the 9-cycle window covers
  about half of all operand gaps; shrinking it shifts traffic onto the
  CRCs and the operand miss rate.
* **Cluster slotting**: dependence-based slotting versus round-robin.

Each builder below returns an :class:`Ablation` spec and runs nothing.
:func:`run_ablations` submits the cells of every study it is given as
one harness campaign (see
:func:`repro.experiments.runner.run_campaign`), so a baseline that
several studies share is simulated once, and failed cells surface as
``n/a`` entries plus one failure report instead of aborting the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import format_heading, format_table, percent
from repro.core import CoreConfig, DRAConfig, LoadRecovery, OperandSource
from repro.experiments.runner import (
    CellFailure,
    ExperimentSettings,
    HarnessSettings,
    RunPoint,
    run_campaign,
)

#: Representative workloads: a branchy integer code, the archetypal
#: load-loop code, and the operand-miss-prone low-ILP code.
DEFAULT_WORKLOADS: Tuple[str, ...] = ("compress", "swim", "apsi")


@dataclass(frozen=True)
class Ablation:
    """One variant-vs-baseline study: what to simulate and tabulate."""

    title: str
    #: (name, config) pairs; the first is the baseline every other
    #: variant's IPC is normalised against
    variants: Tuple[Tuple[str, CoreConfig], ...]
    workloads: Tuple[str, ...]
    #: auxiliary per-point metric (study dependent)
    aux: Optional[Callable[[RunPoint], float]] = None


@dataclass
class AblationResult:
    """Generic ablation output: variant -> workload -> metric."""

    title: str
    variants: List[str] = field(default_factory=list)
    #: variant -> workload -> relative IPC (vs the first variant);
    #: None marks a cell lost to a simulation failure
    rows: Dict[str, Dict[str, Optional[float]]] = field(default_factory=dict)
    #: variant -> workload -> auxiliary metric (policy dependent)
    aux: Dict[str, Dict[str, Optional[float]]] = field(default_factory=dict)

    def relative(self, variant: str, workload: str) -> float:
        """IPC of a variant relative to the baseline variant."""
        return self.rows[variant][workload]

    def render(self) -> str:
        """The ablation as a text table."""
        workloads = list(next(iter(self.rows.values())).keys())
        headers = ["variant"] + workloads
        rows = [
            [variant] + [percent(self.rows[variant][w]) for w in workloads]
            for variant in self.variants
        ]
        return format_heading(self.title) + "\n" + format_table(headers, rows)


def run_ablations(
    ablations: Sequence[Ablation],
    settings: Optional[ExperimentSettings] = None,
    harness: Optional[HarnessSettings] = None,
) -> Tuple[List[AblationResult], List[CellFailure]]:
    """Run every study as one fault-tolerant campaign.

    Returns one result per study, in order, and the campaign's failed
    cells.  A workload whose baseline cell failed reports None for all
    of that study's variants.
    """
    campaign = run_campaign(
        [
            (workload, config)
            for ablation in ablations
            for _, config in ablation.variants
            for workload in ablation.workloads
        ],
        settings or ExperimentSettings(),
        harness,
    )
    results = []
    for ablation in ablations:
        result = AblationResult(title=ablation.title)
        baseline_config = ablation.variants[0][1]
        for name, config in ablation.variants:
            result.variants.append(name)
            result.rows[name] = {}
            if ablation.aux is not None:
                result.aux[name] = {}
            for workload in ablation.workloads:
                point = campaign.point(workload, config)
                base = campaign.point(workload, baseline_config)
                if point is None or base is None or base.ipc == 0:
                    result.rows[name][workload] = None
                else:
                    result.rows[name][workload] = point.ipc / base.ipc
                if ablation.aux is not None:
                    result.aux[name][workload] = (
                        ablation.aux(point) if point is not None else None
                    )
        results.append(result)
    return results, campaign.failures


def recovery_ablation(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
) -> Ablation:
    """Load-miss recovery policies on the base machine (§2.2.2)."""
    variants = [
        (policy.value, CoreConfig.base().replace(load_recovery=policy))
        for policy in (
            LoadRecovery.REISSUE, LoadRecovery.REFETCH, LoadRecovery.STALL
        )
    ]
    return Ablation(
        "Ablation: load resolution loop management",
        tuple(variants), tuple(workloads),
    )


def crc_ablation(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    entries: Sequence[int] = (4, 8, 16, 32),
    rf_latency: int = 5,
) -> Ablation:
    """CRC capacity and replacement policy (§5.1)."""
    dras = [(f"fifo-{n}", DRAConfig(crc_entries=n)) for n in entries]
    dras.append(("oracle-16", DRAConfig(crc_entries=16, oracle_crc=True)))
    variants = [
        (name, CoreConfig.with_dra(rf_latency, dra=dra)) for name, dra in dras
    ]
    return Ablation(
        "Ablation: cluster register cache geometry",
        tuple(variants), tuple(workloads),
        aux=lambda point: point.last.stats.operand_miss_rate,
    )


def forwarding_ablation(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    depths: Sequence[int] = (3, 6, 9, 15),
    rf_latency: int = 5,
) -> Ablation:
    """Forwarding-buffer depth under the DRA (§4, Figure 6)."""
    variants = [
        (f"fb-{depth}", CoreConfig.with_dra(rf_latency).replace(fb_depth=depth))
        for depth in depths
    ]
    return Ablation(
        "Ablation: forwarding buffer depth",
        tuple(variants), tuple(workloads),
        aux=lambda point: point.last.stats.operand_source_fractions()[
            OperandSource.FORWARD
        ],
    )


def predictor_ablation(
    workloads: Sequence[str] = ("compress", "go", "m88ksim"),
    kinds: Sequence[str] = ("taken", "bimodal", "gshare", "local", "tournament"),
) -> Ablation:
    """Branch predictor choice — attacking the branch loop's *rate*.

    The §1 cost model says mis-speculation cost = occurrences x rate x
    impact; the predictor is the machine's lever on the rate term.
    """
    from repro.branch.predictors import PredictorSpec

    variants = [
        (kind, CoreConfig.base().replace(predictor=PredictorSpec(kind=kind)))
        for kind in kinds
    ]
    return Ablation(
        "Ablation: branch direction predictor",
        tuple(variants), tuple(workloads),
        aux=lambda point: point.last.stats.branch_mispredict_rate,
    )


def rf_ports_ablation(
    workloads: Sequence[str] = ("m88ksim", "swim"),
    ports: Sequence[int] = (16, 12, 8, 4),
) -> Ablation:
    """Register-file read ports on the base machine (§2.1).

    The paper keeps full port capability (16 read ports for 8-wide
    issue) and argues in prose that "the full port capability is not
    needed in most cases" yet reducing ports "adds unnecessary
    complexity".  This ablation measures the bandwidth side: how much
    performance a port-limited issue stage actually loses.
    """
    variants = [
        (f"ports-{count}", CoreConfig.base().replace(rf_read_ports=count))
        for count in ports
    ]
    return Ablation(
        "Ablation: register file read ports",
        tuple(variants), tuple(workloads),
    )


def wake_lead_ablation(
    workloads: Sequence[str] = ("swim", "compress"),
    leads: Sequence[int] = (0, 3, 6, 12),
) -> Ablation:
    """How aggressively missed-load dependents may wake (§2.2.2).

    ``load_fill_wake_lead`` is the number of cycles before a missed
    load's fill that dependents may begin to reissue.  0 is the paper's
    conservative semantics (reissue after resolution: the dependent
    reaches execute a full IQ->EX after the data); a lead of IQ->EX
    would hide the issue traversal entirely.  This isolates the
    mechanism behind Figure 5.
    """
    variants = [
        (f"lead-{lead}", CoreConfig.base().replace(load_fill_wake_lead=lead))
        for lead in leads
    ]
    return Ablation(
        "Ablation: load-fill wake lead",
        tuple(variants), tuple(workloads),
    )


def iq_size_ablation(
    workloads: Sequence[str] = ("swim", "compress"),
    sizes: Sequence[int] = (32, 64, 128, 256),
) -> Ablation:
    """Issue-queue capacity vs the §2.2.2 retention pressure.

    Issued instructions hold IQ entries for a full loop delay; with a
    small queue that retention visibly throttles the window.
    """
    variants = [
        (f"iq-{size}", CoreConfig.base().replace(iq_entries=size))
        for size in sizes
    ]
    return Ablation(
        "Ablation: issue queue capacity",
        tuple(variants), tuple(workloads),
        aux=lambda point: point.last.stats.avg_iq_issued_waiting,
    )


def centralization_ablation(
    workloads: Sequence[str] = ("swim", "compress"),
    rf_latency: int = 5,
) -> Ablation:
    """One central register cache vs the distributed CRCs (§4).

    The paper argues a single small register cache must fail: "a small
    register cache results in a high miss rate ... a register cache may
    need to be of comparable size to a register file".  The variants:
    the DRA's 8 x 16 distributed CRCs, a single shared 16-entry cache,
    and a single cache grown to 128 entries (register-file-class
    capacity, which hardware could not read in one cycle).
    """
    dras = [
        ("distributed-8x16", DRAConfig()),
        ("central-16", DRAConfig(centralized=True)),
        ("central-128", DRAConfig(centralized=True, crc_entries=128)),
    ]
    variants = [
        (name, CoreConfig.with_dra(rf_latency, dra=dra)) for name, dra in dras
    ]
    return Ablation(
        "Ablation: distributed vs central register cache",
        tuple(variants), tuple(workloads),
        aux=lambda point: point.last.stats.operand_miss_rate,
    )


def memdep_ablation(
    workloads: Sequence[str] = ("compress", "swim"),
) -> Ablation:
    """Memory dependence loop management policies (paper Figure 2).

    Store-wait prediction (the default) against always-speculate
    (``naive``), never-speculate (``conservative``), and perfect
    disambiguation (``disabled``) on the base machine.
    """
    from repro.core.memdep import MemDepConfig, MemDepPolicy

    variants = [
        (name, CoreConfig.base().replace(memdep=memdep))
        for name, memdep in (
            ("predict", MemDepConfig(policy=MemDepPolicy.PREDICT)),
            ("naive", MemDepConfig(policy=MemDepPolicy.NAIVE)),
            ("conservative", MemDepConfig(policy=MemDepPolicy.CONSERVATIVE)),
            ("disabled", None),
        )
    ]
    return Ablation(
        "Ablation: memory dependence speculation",
        tuple(variants), tuple(workloads),
        aux=lambda point: float(point.last.stats.memdep_traps),
    )


def slotting_ablation(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    rf_latency: int = 5,
) -> Ablation:
    """Dependence-based versus round-robin cluster slotting."""
    variants = [
        (slotting, CoreConfig.with_dra(rf_latency).replace(slotting=slotting))
        for slotting in ("dependence", "round_robin")
    ]
    return Ablation(
        "Ablation: cluster slotting policy",
        tuple(variants), tuple(workloads),
        aux=lambda point: point.last.stats.operand_miss_rate,
    )


#: Every study's builder, in the order ``loopsim ablations`` prints them.
ABLATIONS: Tuple[Callable[..., Ablation], ...] = (
    recovery_ablation,
    crc_ablation,
    forwarding_ablation,
    slotting_ablation,
    centralization_ablation,
    memdep_ablation,
    wake_lead_ablation,
    iq_size_ablation,
    rf_ports_ablation,
    predictor_ablation,
)
