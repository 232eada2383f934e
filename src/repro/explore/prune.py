"""Analytical pre-filter: first-order loop-model scoring before any sim.

Detailed simulation is the expensive resource the explorer budgets, so
candidates that the paper's own §1 arithmetic already condemns should
never reach a rung.  This module prices every candidate with the
first-order loop model (:mod:`repro.loops.model` supplies the per-loop
minimum mis-speculation impacts for the candidate's geometry; the
workload profiles supply prior event rates) and skips points that are
dominated *within the model's trusted resolution*: another candidate
costs no more on any hardware axis and is predicted faster by more than
the configured margin.

The margin is the model's honesty clause.  A first-order model ignores
recovery overlap and queueing, so its predictions carry error; a point
is only "provably" dominated when the predicted gap exceeds the error
the model is trusted to make.  Every rung then feeds measured IPCs back
through :meth:`AnalyticalPruner.record`, so each exploration calibrates
the model for free — the ledger carries the predicted-vs-measured error
distribution, and a margin that the calibration contradicts is visible
immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import CoreConfig
from repro.errors import ConfigError
from repro.explore.pareto import hardware_cost
from repro.explore.space import Candidate
from repro.isa import OpClass
from repro.loops.model import loops_for_config
from repro.workloads import workload_profiles
from repro.workloads.profiles import WorkloadProfile

#: Issue-limited CPI floor before loop losses: a constant plus a
#: serialisation term for dependency-chained codes (apsi's "long,
#: narrow chains" run far below the machine width).
_CPI_FLOOR_BASE = 0.35
_CPI_FLOOR_CHAIN = 0.8
#: Queueing/refill amplifier on the branch loop: the §1 impact is a
#: minimum; refetch refill and IQ re-ramp add roughly half again.
_BRANCH_QUEUEING = 1.5
#: Prior operand-miss pressure: miss probability per operand read is
#: ``pressure / crc_entries`` (the paper's ~1 % at 16 entries).
_OPERAND_PRESSURE = 0.15
#: Pollution multiplier for the unfiltered insertion strawman.
_ALWAYS_POLLUTION = 3.0


@dataclass(frozen=True)
class PruneSettings:
    """How aggressively the analytical pre-filter may act."""

    #: Relative predicted-IPC gap below which the model is not trusted
    #: to separate two candidates (first-order models are ~10 % tools).
    margin: float = 0.12

    def __post_init__(self) -> None:
        if self.margin < 0:
            raise ConfigError("prune margin cannot be negative")


@dataclass(frozen=True)
class Prediction:
    """The model's score for one candidate."""

    candidate: Candidate
    predicted_ipc: float
    #: Per-loop predicted CPI contributions (diagnostic).
    components: Tuple[Tuple[str, float], ...]


@dataclass(frozen=True)
class PruneDecision:
    """Why one candidate was skipped without simulation."""

    candidate: Candidate
    dominated_by: str
    predicted_ipc: float
    dominator_predicted_ipc: float

    def describe(self) -> str:
        return (
            f"{self.candidate.label}: predicted {self.predicted_ipc:.3f} "
            f"ipc, dominated by {self.dominated_by} "
            f"({self.dominator_predicted_ipc:.3f} predicted, cost <=)"
        )


@dataclass
class CalibrationRecord:
    """One predicted-vs-measured pair (free model calibration)."""

    label: str
    predicted_ipc: float
    measured_ipc: float

    @property
    def rel_error(self) -> float:
        if self.measured_ipc == 0:
            return 0.0
        return (self.predicted_ipc - self.measured_ipc) / self.measured_ipc


def _profile_components(
    profile: WorkloadProfile,
    config: CoreConfig,
    impacts: Dict[str, int],
) -> Tuple[float, Dict[str, float]]:
    """(CPI floor, per-loop CPI contributions) for one thread profile.

    Event rates are profile priors; each loop's cost is ``events/insn x
    min impact``, then corrected for the two first-order effects the §1
    lower bound leaves out: memory-level parallelism hides load-loop
    recoveries across independent strands (discounted by the square
    root of the strand count — the classic overlap scaling), and branch
    recoveries cost *more* than the minimum because the refetched
    stream must refill the IQ (a constant queueing amplifier).
    """
    branch_frac = profile.mix.fraction(OpClass.BRANCH)
    load_frac = profile.mix.fraction(OpClass.LOAD)
    memory = profile.memory
    deps = profile.deps
    mlp_overlap = 1.0 / math.sqrt(deps.strands)
    rates = {
        "branch_resolution": (
            branch_frac * (1.0 - profile.branches.indirect_frac)
            * profile.branches.expected_mispredict_rate
            * _BRANCH_QUEUEING
        ),
        # non-hot references are the L1-miss diet that mis-speculates
        # the load resolution loop; independent strands overlap them
        "load_resolution": load_frac * (
            memory.warm_frac + memory.cold_frac + memory.stream_frac
        ) * mlp_overlap,
        "dtlb_trap": load_frac * memory.cold_frac / memory.page_dwell,
        "memory_dependence": load_frac * memory.alias_site_frac * 0.1,
    }
    dra = config.dra
    if dra is not None:
        reads_per_insn = 1.0 + deps.two_src_frac
        entries = dra.crc_entries
        if dra.centralized:
            entries = max(1.0, entries / config.num_clusters)
        pollution = (
            _ALWAYS_POLLUTION if dra.insertion_policy == "always" else 1.0
        )
        miss_prob = min(0.5, pollution * _OPERAND_PRESSURE / entries)
        rates["operand_resolution"] = reads_per_insn * miss_prob
    floor = _CPI_FLOOR_BASE + _CPI_FLOOR_CHAIN * deps.chain_frac
    components = {
        name: rate * impacts[name]
        for name, rate in rates.items()
        if name in impacts
    }
    return floor, components


def predict_ipc(
    config: CoreConfig, profiles: Sequence[WorkloadProfile]
) -> Tuple[float, Tuple[Tuple[str, float], ...]]:
    """First-order predicted IPC for one machine on a workload mix.

    ``CPI = floor + sum(events/insn x min impact)`` over the machine's
    loop inventory — the §1 arithmetic priced with profile priors
    instead of measured counters (see :func:`_profile_components` for
    the two overlap corrections).
    """
    impacts = {
        loop.name: loop.min_misspeculation_impact
        for loop in loops_for_config(config)
    }
    floor = 0.0
    components: Dict[str, float] = {}
    for profile in profiles:
        profile_floor, profile_components = _profile_components(
            profile, config, impacts
        )
        floor += profile_floor / len(profiles)
        for name, cost in profile_components.items():
            components[name] = (
                components.get(name, 0.0) + cost / len(profiles)
            )
    cpi = floor + sum(components.values())
    return 1.0 / cpi, tuple(sorted(components.items()))


class AnalyticalPruner:
    """Scores candidates analytically; prunes model-dominated points."""

    def __init__(
        self,
        workloads: Sequence[str],
        settings: Optional[PruneSettings] = None,
    ) -> None:
        if not workloads:
            raise ConfigError("the pruner needs at least one workload")
        self.settings = settings or PruneSettings()
        self.profiles: List[WorkloadProfile] = []
        for name in workloads:
            for entry in workload_profiles(name):
                # trace specs supply a representative profile for the
                # analytical priors
                if hasattr(entry, "prior_profile"):
                    entry = entry.prior_profile()
                self.profiles.append(entry)
        self.records: List[CalibrationRecord] = []
        self._predictions: Dict[str, Prediction] = {}

    def predict(self, candidate: Candidate) -> Prediction:
        """The (memoised) model score for one candidate."""
        cached = self._predictions.get(candidate.label)
        if cached is not None:
            return cached
        ipc, components = predict_ipc(candidate.config, self.profiles)
        prediction = Prediction(
            candidate=candidate, predicted_ipc=ipc, components=components
        )
        self._predictions[candidate.label] = prediction
        return prediction

    def filter(
        self, candidates: Sequence[Candidate]
    ) -> Tuple[List[Candidate], List[PruneDecision]]:
        """Split candidates into (simulate, skip).

        A candidate is skipped only when some other candidate costs no
        more on *every* hardware axis and the model predicts it faster
        by more than the margin.  Pinned candidates are never skipped.
        Transitively safe: a dominator that is itself pruned implies a
        kept candidate with lower cost and a still-larger predicted gap.
        """
        margin = 1.0 + self.settings.margin
        predictions = [self.predict(c) for c in candidates]
        costs = {c.label: hardware_cost(c.config) for c in candidates}
        kept: List[Candidate] = []
        pruned: List[PruneDecision] = []
        for prediction in predictions:
            candidate = prediction.candidate
            if candidate.pinned:
                kept.append(candidate)
                continue
            dominator: Optional[Prediction] = None
            for other in predictions:
                if other.candidate.label == candidate.label:
                    continue
                if not costs[other.candidate.label].dominates_cost(
                    costs[candidate.label]
                ):
                    continue
                if other.predicted_ipc >= prediction.predicted_ipc * margin:
                    if (
                        dominator is None
                        or other.predicted_ipc > dominator.predicted_ipc
                    ):
                        dominator = other
            if dominator is None:
                kept.append(candidate)
            else:
                pruned.append(
                    PruneDecision(
                        candidate=candidate,
                        dominated_by=dominator.candidate.label,
                        predicted_ipc=prediction.predicted_ipc,
                        dominator_predicted_ipc=dominator.predicted_ipc,
                    )
                )
        return kept, pruned

    def record(self, candidate: Candidate, measured_ipc: float) -> None:
        """Feed a measured IPC back for calibration."""
        prediction = self.predict(candidate)
        self.records.append(
            CalibrationRecord(
                label=candidate.label,
                predicted_ipc=prediction.predicted_ipc,
                measured_ipc=measured_ipc,
            )
        )

    def calibration(self) -> Dict[str, Any]:
        """The predicted-vs-measured error ledger entry."""
        if not self.records:
            return {"count": 0}
        errors = [abs(r.rel_error) for r in self.records]
        return {
            "count": len(self.records),
            "mean_abs_rel_error": sum(errors) / len(errors),
            "max_abs_rel_error": max(errors),
            "records": [
                {
                    "label": r.label,
                    "predicted_ipc": r.predicted_ipc,
                    "measured_ipc": r.measured_ipc,
                    "rel_error": r.rel_error,
                }
                for r in self.records
            ],
        }
