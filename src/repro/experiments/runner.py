"""Shared experiment machinery: settings, seed-averaged runs, campaigns.

Two entry points sit on top of :mod:`repro.harness`:

* :func:`run_config` — one (workload, config) cell, seed-averaged.
  Raises on failure.
* :func:`run_campaign` — a batch of cells executed with isolation,
  timeouts and retries.  Never raises for cell failures: the returned
  :class:`Campaign` carries the completed points *and* a failure report,
  so figure drivers degrade to partial output instead of aborting.

A result is reused by content key only: a batch runs each distinct cell
once, and separate batches share cells only through a cache directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import mean
from repro.core import CoreConfig, SimResult
from repro.core.backend import DEFAULT_BACKEND
from repro.harness import (
    Cell,
    CellFailure,
    HarnessSettings,
    execute_cells,
)


@dataclass(frozen=True)
class ExperimentSettings:
    """Fidelity/runtime trade-off for experiment drivers.

    The defaults are sized for interactive use; the paper's figures are
    regenerated with the same settings by the benchmark suite.
    """

    instructions: int = 10_000
    warmup: int = 100_000
    detailed_warmup: int = 1_500
    seeds: Tuple[int, ...] = (0,)
    #: kernel backend spec (see :func:`repro.core.backend.parse_backend`);
    #: folded into cell keys via this dataclass's repr
    backend: str = DEFAULT_BACKEND

    @classmethod
    def quick(cls) -> "ExperimentSettings":
        """Small runs for tests (~seconds per configuration)."""
        return cls(instructions=3_000, warmup=30_000, detailed_warmup=500)

    @classmethod
    def full(cls) -> "ExperimentSettings":
        """Seed-averaged runs for the recorded EXPERIMENTS.md numbers."""
        return cls(instructions=12_000, seeds=(0, 1))


@dataclass
class RunPoint:
    """Seed-averaged result of one (workload, config) cell."""

    workload: str
    config: CoreConfig
    ipc: float
    results: List[SimResult] = field(default_factory=list)

    @property
    def last(self) -> SimResult:
        """The last seed's full result (for detailed counters)."""
        return self.results[-1]


def _cells_for(
    workload: str, config: CoreConfig, settings: ExperimentSettings
) -> List[Cell]:
    """One harness cell per seed of a (workload, config) point."""
    return [
        Cell(workload=workload, config=config, settings=settings, seed=seed)
        for seed in settings.seeds
    ]


def _assemble_point(
    workload: str, config: CoreConfig, results: List[SimResult]
) -> RunPoint:
    return RunPoint(
        workload=workload,
        config=config,
        ipc=mean([r.ipc for r in results]),
        results=results,
    )


def run_config(
    workload: str,
    config: CoreConfig,
    settings: ExperimentSettings,
    harness: Optional[HarnessSettings] = None,
) -> RunPoint:
    """Run one (workload, config) cell, averaged over the seeds.

    Execution routes through :mod:`repro.harness`, so a configured
    harness brings subprocess isolation, timeouts, retries and the
    persistent cache to every experiment driver.  Raises the cell's
    classified :class:`~repro.errors.ReproError` if it ultimately fails.
    """
    outcomes = execute_cells(_cells_for(workload, config, settings), harness)
    for outcome in outcomes:
        if not outcome.ok:
            raise outcome.error
    return _assemble_point(
        workload, config, [outcome.result for outcome in outcomes]
    )


@dataclass
class Campaign:
    """Partial results plus a failure report for a batch of cells.

    A point is present only if *every* seed of its cell succeeded;
    drivers render missing points as gaps rather than aborting the
    whole figure (graceful degradation).
    """

    settings: ExperimentSettings
    points: Dict[Tuple[str, CoreConfig], RunPoint] = field(default_factory=dict)
    failures: List[CellFailure] = field(default_factory=list)

    def point(self, workload: str, config: CoreConfig) -> Optional[RunPoint]:
        """The completed point for a cell, or None if any seed failed."""
        return self.points.get((workload, config))

    def failure_report(self) -> str:
        """A rendered failure summary ('' when the campaign is clean)."""
        return render_failure_report(self.failures)


def render_failure_report(failures: Sequence[CellFailure]) -> str:
    """A rendered failure summary ('' for a clean run)."""
    if not failures:
        return ""
    lines = [f"{len(failures)} cell(s) failed (shown as n/a above):"]
    lines += [f"  {failure.describe()}" for failure in failures]
    return "\n".join(lines)


def run_campaign(
    pairs: Sequence[Tuple[str, CoreConfig]],
    settings: ExperimentSettings,
    harness: Optional[HarnessSettings] = None,
) -> Campaign:
    """Execute every (workload, config) pair, tolerating cell failures."""
    campaign = Campaign(settings=settings)
    pending = list(dict.fromkeys(pairs))
    cells = [
        cell
        for workload, config in pending
        for cell in _cells_for(workload, config, settings)
    ]
    outcomes = iter(execute_cells(cells, harness))
    for workload, config in pending:
        results: List[SimResult] = []
        failed = False
        for _ in settings.seeds:
            outcome = next(outcomes)
            if outcome.ok:
                results.append(outcome.result)
            else:
                campaign.failures.append(outcome.failure())
                failed = True
        if failed:
            continue
        campaign.points[(workload, config)] = _assemble_point(
            workload, config, results
        )
    return campaign
