"""Budget-aware successive halving over the candidate set.

The scheduler is the exploration engine's heart: instead of simulating
every candidate at full fidelity, it runs *rungs* of increasing
instruction counts and promotes only the strongest fraction of each
selection group to the next rung (ASHA-style successive halving, here
executed rung-synchronously so a fixed seed gives an identical rung
history).  Every rung executes through :func:`repro.experiments.runner.
run_campaign`, so the fault-tolerant harness — subprocess isolation,
watchdog timeouts, classified retries, the persistent result cache and
the differential verifier — composes with the search for free.

Selection is *grouped*: candidates compete only inside their space
group (the DRA space groups by register-file latency), and pinned
baselines are always promoted.  That guarantees the final rung still
contains every comparison the paper's figures need (base vs best DRA at
each rf), while the losers inside each group are cut early at cheap
fidelities.

Accounting: each rung's detailed instructions are charged against an
optional budget; the run stops promoting when the next rung would
overdraw it.  The exhaustive-grid cost (every candidate at final-rung
fidelity) is recorded alongside the actual spend, which is where the
``BENCH_explore.json`` savings number comes from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.backend import DEFAULT_BACKEND
from repro.errors import ConfigError
from repro.experiments.runner import (
    CellFailure,
    ExperimentSettings,
    HarnessSettings,
    RunPoint,
    run_campaign,
)
from repro.explore.space import Candidate


@dataclass(frozen=True)
class HalvingSettings:
    """Geometry of the successive-halving run."""

    #: Number of rungs (the last runs at full fidelity).
    rungs: int = 3
    #: Keep ~1/eta of each selection group per rung.
    eta: int = 3
    #: Detailed instructions of the first (cheapest) rung.
    base_instructions: int = 1_000
    #: Instruction multiplier between consecutive rungs.
    growth: int = 3
    #: Seeds averaged per cell at every rung.
    seeds: Tuple[int, ...] = (0,)
    #: Functional warmup / detailed warmup per run.
    warmup: int = 30_000
    detailed_warmup: int = 500
    #: Total detailed-instruction budget (None = the rung geometry).
    budget: Optional[int] = None
    #: Kernel backend for every rung (a :func:`repro.core.backend.
    #: parse_backend` spec).
    backend: str = DEFAULT_BACKEND
    #: Optional per-rung backend override, one entry per rung from the
    #: cheapest up; shorter tuples repeat their last entry.  The classic
    #: use: sampled early rungs to triage, an exact final rung to score.
    rung_backends: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.rungs < 1:
            raise ConfigError("need at least one rung")
        if self.eta < 2:
            raise ConfigError("eta must be >= 2 (nothing halves below 2)")
        if self.base_instructions < 1:
            raise ConfigError("base_instructions must be >= 1")
        if self.growth < 2:
            raise ConfigError("growth must be >= 2")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if self.budget is not None and self.budget < 1:
            raise ConfigError("budget must be positive")
        if self.rung_backends is not None and not self.rung_backends:
            raise ConfigError("rung_backends cannot be empty; use None")

    def rung_instructions(self, rung: int) -> int:
        """Detailed instructions simulated per cell at one rung."""
        return self.base_instructions * self.growth ** rung

    def rung_backend(self, rung: int) -> str:
        """Backend spec used at one rung."""
        if self.rung_backends is None:
            return self.backend
        return self.rung_backends[min(rung, len(self.rung_backends) - 1)]

    @property
    def final_instructions(self) -> int:
        """Full fidelity: the last rung's instruction count."""
        return self.rung_instructions(self.rungs - 1)

    @classmethod
    def quick(cls) -> "HalvingSettings":
        """Tiny geometry for tests and CI smoke runs."""
        return cls(
            rungs=2, base_instructions=500, growth=3,
            warmup=10_000, detailed_warmup=200,
        )


@dataclass
class RungRecord:
    """What one rung measured and whom it promoted."""

    index: int
    instructions: int
    #: candidate label -> seed-averaged IPC (None = all seeds failed).
    scores: Dict[str, Optional[float]]
    survivors: List[str]
    #: per-candidate metric snapshot (stats summary of the last seed).
    metrics: Dict[str, Dict[str, float]]
    failures: List[CellFailure] = field(default_factory=list)
    #: detailed instructions charged to the budget by this rung.
    instructions_spent: int = 0
    #: kernel backend spec this rung ran under.
    backend: str = "reference"

    def to_json(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "instructions": self.instructions,
            "scores": self.scores,
            "survivors": self.survivors,
            "instructions_spent": self.instructions_spent,
            "failures": [f.describe() for f in self.failures],
        }


@dataclass
class SearchResult:
    """The full rung history plus the final fidelity scores."""

    candidates: List[Candidate]
    rungs: List[RungRecord]
    #: final-rung points by candidate label.
    final_points: Dict[str, RunPoint]
    settings: HalvingSettings
    workloads: Tuple[str, ...]
    #: detailed instructions actually simulated (cells x instructions).
    spent_instructions: int = 0
    #: True when the budget stopped the run before the last rung.
    truncated: bool = False

    @property
    def final_scores(self) -> Dict[str, float]:
        """Workload-mean IPC of every candidate in the final rung."""
        if not self.rungs:
            return {}
        last = self.rungs[-1].scores
        return {
            label: last[label]
            for label in self.final_points
            if last.get(label) is not None
        }

    def candidate(self, label: str) -> Candidate:
        for c in self.candidates:
            if c.label == label:
                return c
        raise KeyError(label)

    @property
    def failures(self) -> List[CellFailure]:
        return [f for rung in self.rungs for f in rung.failures]


def _select(
    alive: Sequence[Candidate],
    scores: Dict[str, Optional[float]],
    eta: int,
) -> List[Candidate]:
    """Grouped promotion: top ceil(n/eta) per group, pins always.

    Candidates whose every seed failed score None and are only carried
    forward when pinned (the harness already retried them).  Ties break
    deterministically by label.
    """
    groups: Dict[str, List[Candidate]] = {}
    for candidate in alive:
        groups.setdefault(candidate.group, []).append(candidate)
    survivors: List[Candidate] = []
    for members in groups.values():
        contenders = [
            c for c in members
            if not c.pinned and scores.get(c.label) is not None
        ]
        keep = max(1, math.ceil(len(contenders) / eta)) if contenders else 0
        ranked = sorted(
            contenders, key=lambda c: (-scores[c.label], c.label)
        )
        survivors.extend(c for c in members if c.pinned)
        survivors.extend(ranked[:keep])
    order = {c.label: i for i, c in enumerate(alive)}
    return sorted(survivors, key=lambda c: order[c.label])


def run_search(
    candidates: Sequence[Candidate],
    workloads: Sequence[str],
    settings: Optional[HalvingSettings] = None,
    harness: Optional[HarnessSettings] = None,
) -> SearchResult:
    """Run the successive-halving search over prepared candidates.

    Deterministic: the same candidates, workloads and settings produce
    an identical rung history (the simulator is seeded, selection
    tie-breaks are lexicographic, and rungs execute synchronously).
    """
    settings = settings or HalvingSettings()
    if not candidates:
        raise ConfigError("no candidates to search")
    if not workloads:
        raise ConfigError("need at least one workload")
    labels = [c.label for c in candidates]
    if len(set(labels)) != len(labels):
        raise ConfigError("candidate labels must be unique")

    result = SearchResult(
        candidates=list(candidates),
        rungs=[],
        final_points={},
        settings=settings,
        workloads=tuple(workloads),
    )
    alive = list(candidates)
    cells_per_candidate = len(workloads) * len(settings.seeds)
    last_points: Dict[str, RunPoint] = {}
    for rung_index in range(settings.rungs):
        instructions = settings.rung_instructions(rung_index)
        rung_cost = instructions * len(alive) * cells_per_candidate
        if (
            settings.budget is not None
            and result.spent_instructions + rung_cost > settings.budget
            and rung_index > 0
        ):
            # the budget cannot fund this rung: the previous rung's
            # survivors are the best answer the budget buys
            result.truncated = True
            break
        experiment = ExperimentSettings(
            instructions=instructions,
            warmup=settings.warmup,
            detailed_warmup=settings.detailed_warmup,
            seeds=settings.seeds,
            backend=settings.rung_backend(rung_index),
        )
        pairs = [
            (workload, candidate.config)
            for candidate in alive
            for workload in workloads
        ]
        campaign = run_campaign(pairs, experiment, harness)
        scores: Dict[str, Optional[float]] = {}
        metrics: Dict[str, Dict[str, float]] = {}
        points: Dict[str, RunPoint] = {}
        for candidate in alive:
            cell_points = [
                campaign.point(workload, candidate.config)
                for workload in workloads
            ]
            if any(p is None for p in cell_points):
                scores[candidate.label] = None
                continue
            ipc = sum(p.ipc for p in cell_points) / len(cell_points)
            scores[candidate.label] = ipc
            metrics[candidate.label] = cell_points[-1].last.stats.summary()
            points[candidate.label] = cell_points[-1]
        survivors = (
            _select(alive, scores, settings.eta)
            if rung_index < settings.rungs - 1
            else [c for c in alive if scores.get(c.label) is not None]
        )
        spent = instructions * len(alive) * cells_per_candidate
        result.spent_instructions += spent
        result.rungs.append(
            RungRecord(
                index=rung_index,
                instructions=instructions,
                scores=scores,
                survivors=[c.label for c in survivors],
                metrics=metrics,
                failures=list(campaign.failures),
                instructions_spent=spent,
                backend=experiment.backend,
            )
        )
        alive = survivors
        last_points = points
    # the final scores are the survivors of the last *completed* rung —
    # the full-fidelity rung normally, the deepest funded one when the
    # budget truncated the ladder
    result.final_points = {
        candidate.label: last_points[candidate.label]
        for candidate in alive
        if candidate.label in last_points
    }
    return result
