"""The :class:`Verifier` facade and the per-preset verification sweep.

``Verifier`` bundles the golden retire model, the event-stream invariant
checkers, and the metrics/attribution reconciliation cross-checks into
one object with the attach/finish protocol that
:func:`repro.core.simulate` understands::

    from repro import CoreConfig, simulate
    from repro.verify import Verifier

    verifier = Verifier()
    result = simulate("int_test", CoreConfig.with_dra(), verifier=verifier)
    verifier.raise_if_failed()

:func:`verify_presets` runs that self-checking simulation over every
machine preset, baseline and DRA-equipped, which is what the
``repro verify`` CLI sweep does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.core.config import CoreConfig, DRAConfig
from repro.errors import ReproError, VerificationError
from repro.obs.attribution import LoopAttribution
from repro.obs.bus import EventBus
from repro.obs.metrics import MetricsCollector
from repro.presets import MACHINE_PRESETS, preset
from repro.verify.invariants import (
    ConservationChecker,
    CRCCoherenceChecker,
    DataflowChecker,
    InvariantChecker,
    RenameChecker,
    Violation,
)
from repro.verify.oracle import GoldenRetireModel


class Verifier:
    """Golden model + invariant checkers + reconciliation, in one attach.

    Parameters
    ----------
    oracle:
        Check every retirement against the in-order golden model.
    invariants:
        Attach the event-stream invariant checkers (conservation,
        rename, dataflow, and — on DRA configs — CRC coherence).
    attribution:
        Cross-check :class:`~repro.obs.metrics.MetricsCollector` event
        counts against :class:`~repro.core.CoreStats` and require the
        loop attribution's useful+lost==total reconciliation.
    """

    def __init__(
        self,
        oracle: bool = True,
        invariants: bool = True,
        attribution: bool = True,
    ) -> None:
        self._want_oracle = oracle
        self._want_invariants = invariants
        self._want_attribution = attribution
        self.oracle: Optional[GoldenRetireModel] = None
        self.checkers: List[InvariantChecker] = []
        self._collector: Optional[MetricsCollector] = None
        self._attribution: Optional[LoopAttribution] = None
        self.violations: List[Violation] = []
        self.violation_count = 0
        self._finished = False

    # --- the simulate() protocol -------------------------------------------

    def attach(self, simulator, bus: EventBus) -> None:
        """Wire everything to one simulator and its event bus.

        Call between functional warmup and the detailed run (exactly
        when :func:`repro.core.simulate` calls it for its ``verifier``
        argument).
        """
        if self._want_invariants:
            self.checkers = [
                ConservationChecker(),
                RenameChecker(),
                DataflowChecker(),
            ]
            if simulator.config.dra is not None:
                self.checkers.append(CRCCoherenceChecker())
            for checker in self.checkers:
                checker.attach(bus)
        if self._want_attribution:
            self._collector = MetricsCollector(bus)
            self._attribution = LoopAttribution(bus, simulator.config)
        if self._want_oracle:
            self.oracle = GoldenRetireModel()
            self.oracle.attach(simulator)

    def finish(self, stats) -> List[Violation]:
        """Run end-of-stream checks and collect every violation."""
        if self._finished:
            return self.violations
        self._finished = True
        for checker in self.checkers:
            checker.finish()
            self.violations.extend(checker.violations)
            self.violation_count += checker.violation_count
        if self.oracle is not None:
            self.violations.extend(self.oracle.violations)
            self.violation_count += self.oracle.violation_count
        if self._collector is not None:
            for mismatch in self._collector.verify_against(stats):
                self.violation_count += 1
                self.violations.append(Violation(
                    checker="metrics", cycle=stats.cycles, message=mismatch,
                ))
        if self._attribution is not None:
            report = self._attribution.report(stats)
            if not report.reconciles:
                self.violation_count += 1
                self.violations.append(Violation(
                    checker="attribution",
                    cycle=stats.cycles,
                    message=(
                        f"cycle ledger does not reconcile: useful "
                        f"{report.useful_cycles} + lost "
                        f"{report.lost_cycles} != total "
                        f"{report.total_cycles}"
                    ),
                ))
        return self.violations

    # --- reporting ----------------------------------------------------------

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    def report(self) -> str:
        """A human-readable violation summary."""
        if self.passed:
            checked = (
                self.oracle.retired_checked if self.oracle is not None else 0
            )
            return f"all checks passed ({checked} retirements checked)"
        lines = [
            f"{self.violation_count} violation(s), first "
            f"{len(self.violations)} shown:"
        ]
        lines.extend("  " + v.describe() for v in self.violations)
        return "\n".join(lines)

    def raise_if_failed(self, context: str = "") -> None:
        """Raise :class:`~repro.errors.VerificationError` on violations."""
        if self.passed:
            return
        where = f" in {context}" if context else ""
        first = self.violations[0].describe() if self.violations else ""
        raise VerificationError(
            f"{self.violation_count} verification violation(s){where}; "
            f"first: {first}",
            violations=self.violations,
        )


@dataclass
class SweepEntry:
    """One preset/config cell of the verification sweep."""

    preset: str
    label: str
    error: Optional[ReproError] = None
    violations: int = 0
    retirements: int = 0
    first_violation: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None and self.violations == 0

    def describe(self) -> str:
        status = "ok"
        if self.error is not None:
            status = f"ERROR {type(self.error).__name__}: {self.error}"
        elif self.violations:
            status = (
                f"FAIL {self.violations} violation(s): "
                f"{self.first_violation}"
            )
        return (
            f"{self.preset:>12s} {self.label:>12s} "
            f"retired={self.retirements:6d} {status}"
        )


def dra_variant(config: CoreConfig) -> CoreConfig:
    """The DRA-equipped form of a preset's base machine (same geometry)."""
    if config.dra is not None:
        return config
    return replace(config, dra=DRAConfig())


def verify_presets(
    workload: str = "int_test",
    instructions: int = 2000,
    warmup: int = 20_000,
    detailed_warmup: int = 500,
    seed: int = 0,
    presets: Optional[List[str]] = None,
) -> List[SweepEntry]:
    """Self-checking runs over every preset, baseline and DRA.

    Each cell simulates ``workload`` under a full :class:`Verifier`;
    the returned entries carry the per-cell violation counts (all zero
    on a healthy tree).
    """
    from repro.core.simulator import simulate

    names = list(presets) if presets is not None else list(MACHINE_PRESETS)
    entries: List[SweepEntry] = []
    for name in names:
        base_config = preset(name)
        for config in (base_config, dra_variant(base_config)):
            entry = SweepEntry(preset=name, label=config.label)
            verifier = Verifier()
            try:
                simulate(
                    workload,
                    config,
                    instructions=instructions,
                    warmup=warmup,
                    detailed_warmup=detailed_warmup,
                    seed=seed,
                    verifier=verifier,
                )
                verifier.raise_if_failed()
            except VerificationError:
                entry.violations = verifier.violation_count
                if verifier.violations:
                    entry.first_violation = verifier.violations[0].describe()
            except ReproError as error:
                entry.error = error
            if verifier.oracle is not None:
                entry.retirements = verifier.oracle.retired_checked
            entries.append(entry)
    return entries
