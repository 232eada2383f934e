"""Shared experiment machinery: settings, seed-averaged runs, campaigns.

Two entry points sit on top of :mod:`repro.harness`:

* :func:`run_config` — one (workload, config) cell, seed-averaged.
  Raises on failure; memoised in a bounded in-process LRU that reads
  through to the harness's persistent cache.
* :func:`run_campaign` — a batch of cells executed with isolation,
  timeouts and retries.  Never raises for cell failures: the returned
  :class:`Campaign` carries the completed points *and* a failure report,
  so figure drivers degrade to partial output instead of aborting.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import mean
from repro.core import CoreConfig, SimResult
from repro.core.backend import DEFAULT_BACKEND
from repro.harness import (
    Cell,
    CellFailure,
    HarnessSettings,
    default_harness,
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


class _RunCache:
    """Bounded LRU memo of (workload, config, settings) cells.

    This is the in-process layer; the harness's on-disk
    :class:`~repro.harness.ResultCache` sits underneath it (consulted by
    :func:`run_config` on a memo miss), making the pair a classic
    read-through hierarchy.
    """

    def __init__(self, maxsize: int = 128) -> None:
        self.maxsize = maxsize
        self._cells: "OrderedDict[tuple, RunPoint]" = OrderedDict()

    def key(self, workload: str, config: CoreConfig,
            settings: ExperimentSettings) -> tuple:
        return (workload, config, settings)

    def get(self, key: tuple) -> Optional[RunPoint]:
        point = self._cells.get(key)
        if point is not None:
            self._cells.move_to_end(key)
        return point

    def put(self, key: tuple, point: RunPoint) -> None:
        self._cells[key] = point
        self._cells.move_to_end(key)
        while len(self._cells) > self.maxsize:
            self._cells.popitem(last=False)

    def __len__(self) -> int:
        return len(self._cells)


_CACHE = _RunCache()


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
    use_cache: bool = True,
    harness: Optional[HarnessSettings] = None,
) -> RunPoint:
    """Run one (workload, config) cell, averaged over the seeds.

    Execution routes through :mod:`repro.harness`, so a configured
    harness brings subprocess isolation, timeouts, retries and the
    persistent cache to every experiment driver.  Raises the cell's
    classified :class:`~repro.errors.ReproError` if it ultimately fails.
    """
    harness = harness or default_harness()
    key = _CACHE.key(workload, config, settings)
    if use_cache:
        cached = _CACHE.get(key)
        if cached is not None:
            return cached
    outcomes = execute_cells(_cells_for(workload, config, settings), harness)
    for outcome in outcomes:
        if not outcome.ok:
            raise outcome.error
    point = _assemble_point(
        workload, config, [outcome.result for outcome in outcomes]
    )
    _CACHE.put(key, point)
    return point


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

    @property
    def complete(self) -> bool:
        return not self.failures

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
    harness = harness or default_harness()
    campaign = Campaign(settings=settings)
    pending: List[Tuple[str, CoreConfig]] = []
    cells: List[Cell] = []
    seen = set()
    for workload, config in pairs:
        if (workload, config) in seen:
            continue
        seen.add((workload, config))
        memo = _CACHE.get(_CACHE.key(workload, config, settings))
        if memo is not None:
            campaign.points[(workload, config)] = memo
            continue
        pending.append((workload, config))
        cells.extend(_cells_for(workload, config, settings))
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
        point = _assemble_point(workload, config, results)
        campaign.points[(workload, config)] = point
        _CACHE.put(_CACHE.key(workload, config, settings), point)
    return campaign
