"""Kernel backends: one machine model, several ways to execute it.

A :class:`KernelBackend` is a narrow seam between *what* is simulated
(the machine in :mod:`repro.core.pipeline`) and *how* the cycle loop is
executed.  Every consumer — :func:`repro.core.simulator.simulate`, the
harness, ``loopsim run/campaign/explore``, the campaign service — picks
a backend by name and stays agnostic of the execution strategy:

``reference``
    The existing straight-line loop (:class:`~repro.core.pipeline.
    Simulator`).  The semantic ground truth: golden pins are only ever
    regenerated from it (``scripts/update_golden.py`` refuses anything
    else), and every tool that defines or checks against the truth
    names it explicitly rather than taking the default.

``optimized``
    :class:`~repro.core.fastsim.OptimizedSimulator` — the whole run
    loop as one flat function with flattened hot paths, plus fast
    workload generation.  *Exact*: bit-identical ``CoreStats``, retire
    streams and event streams, enforced by the backend-equivalence
    matrix (``tests/test_backend.py``, ``tests/test_pipeline.py``,
    golden pins, differential laws, fuzz smoke).  The default
    (:data:`DEFAULT_BACKEND`).

``sampled``
    SMARTS-style systematic sampling on top of the optimized tick:
    alternating functional fast-forward gaps and detailed windows
    (per-window detailed warmup + measurement), with per-window IPC
    variance turned into an explicit confidence interval
    (:class:`SamplingReport`).  *Not exact* — it estimates; the
    estimate is validated by :meth:`SamplingReport.cross_check`
    against full runs in the shipped error-bound tests.

Exactness is a declared, machine-checked property: ``backend.exact``
gates which backends the verification subsystem and the golden-pin
matrix require to be bit-for-bit, and which are held only to their
declared error bounds.  See ``docs/kernel.md`` for the contract.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from math import sqrt
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.core.config import CoreConfig
from repro.core.pipeline import Simulator
from repro.core.stats import CoreStats
from repro.errors import ConfigError
from repro.workloads import WorkloadProfile

__all__ = [
    "KernelBackend",
    "ReferenceBackend",
    "OptimizedBackend",
    "SampledBackend",
    "SamplingWindow",
    "SamplingReport",
    "RetireStreamRecorder",
    "BACKENDS",
    "parse_backend",
    "DEFAULT_BACKEND",
]

#: The kernel every default path runs: ``simulate()``, experiment and
#: explore settings, the harness and the CLI all read this one name.
#: ``reference`` stays selectable by name as the ground truth.
DEFAULT_BACKEND = "optimized"


# ---------------------------------------------------------------------------
# The backend contract
# ---------------------------------------------------------------------------

class KernelBackend(ABC):
    """How a simulation cell is executed.

    Subclasses name their :attr:`simulator_class` (which :meth:`build`
    constructs) and may override :meth:`run` (drive it).  ``exact``
    declares bit-identical equivalence with ``reference`` — a claim the
    backend test matrix enforces, not a hint.
    """

    #: Name in :data:`BACKENDS` (also the default cache token).
    name: str = "?"
    #: Whether this backend reproduces the reference retire stream and
    #: ``CoreStats`` bit for bit.  Exact backends are interchangeable
    #: under the verifier and the golden pins; inexact ones carry their
    #: own error model and refuse verification.
    exact: bool = True

    @property
    def token(self) -> str:
        """Cache-key token: folds every behaviour-relevant parameter."""
        return self.name

    @property
    @abstractmethod
    def simulator_class(self) -> Type[Simulator]:
        """The :class:`Simulator` class this backend builds (part of a
        warm key: its generators are part of the warmed state)."""

    def build(
        self,
        config: CoreConfig,
        profiles: Sequence[WorkloadProfile],
        seed: int = 0,
    ) -> Simulator:
        """Construct the simulator this backend drives."""
        return self.simulator_class(config, profiles, seed=seed)

    def run(
        self,
        sim: Simulator,
        instructions: int,
        warmup: int = 0,
        max_cycles: Optional[int] = None,
    ) -> CoreStats:
        """Execute ``warmup`` + ``instructions`` retired instructions."""
        return sim.run(instructions, warmup=warmup, max_cycles=max_cycles)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.token!r}>"


class ReferenceBackend(KernelBackend):
    """The existing loop — semantic ground truth for every other backend."""

    name = "reference"
    exact = True
    simulator_class = Simulator


class OptimizedBackend(KernelBackend):
    """The compiled tick (:mod:`repro.core.fastsim`); bit-identical."""

    name = "optimized"
    exact = True

    @property
    def simulator_class(self) -> Type[Simulator]:
        from repro.core.fastsim import OptimizedSimulator

        return OptimizedSimulator


# ---------------------------------------------------------------------------
# Sampled execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingWindow:
    """Measured portion of one detailed window."""

    cycles: int
    retired: int

    @property
    def ipc(self) -> float:
        """This window's IPC (0 when it measured nothing)."""
        return self.retired / self.cycles if self.cycles else 0.0


@dataclass(frozen=True)
class SamplingReport:
    """Error model of one sampled run.

    The headline estimate is the mean of per-window IPCs; the declared
    uncertainty is a normal-approximation 95% confidence interval from
    the between-window variance, widened by ``rel_slack`` — a declared
    systematic-bias allowance for the sampling seam (in-flight state
    crossing functional gaps), calibrated by the shipped cross-check
    tests.  :meth:`cross_check` is the acceptance test: a full
    (unsampled) IPC must land inside the declared interval.
    """

    windows: Tuple[SamplingWindow, ...]
    #: Represented span (instructions the estimate stands for).
    span: int
    #: Detailed instructions actually simulated (warmup + measured).
    detail_instructions: int
    #: Ops per thread streamed functionally between windows.
    functional_instructions: int
    #: Declared relative systematic-bias allowance.
    rel_slack: float = 0.03

    @property
    def ipc_mean(self) -> float:
        """Mean of per-window IPCs — the sampled estimate."""
        if not self.windows:
            return 0.0
        return sum(w.ipc for w in self.windows) / len(self.windows)

    @property
    def ipc_stderr(self) -> float:
        """Standard error of the mean over windows (0 for n < 2)."""
        n = len(self.windows)
        if n < 2:
            return 0.0
        mean = self.ipc_mean
        var = sum((w.ipc - mean) ** 2 for w in self.windows) / (n - 1)
        return sqrt(var / n)

    @property
    def ci95(self) -> Tuple[float, float]:
        """Normal-approximation 95% confidence interval for the mean."""
        half = 1.96 * self.ipc_stderr
        return (self.ipc_mean - half, self.ipc_mean + half)

    @property
    def tolerance(self) -> float:
        """Declared acceptance half-width: CI95 + systematic allowance."""
        return 1.96 * self.ipc_stderr + self.rel_slack * self.ipc_mean

    @property
    def detail_fraction(self) -> float:
        """Fraction of the represented span simulated in detail."""
        if self.span <= 0:
            return 1.0
        return min(1.0, self.detail_instructions / self.span)

    def cross_check(self, full_ipc: float) -> bool:
        """Whether a full run's IPC lands inside the declared bounds."""
        return abs(full_ipc - self.ipc_mean) <= self.tolerance

    def describe(self) -> str:
        """One human-readable line."""
        lo, hi = self.ci95
        return (
            f"sampled ipc={self.ipc_mean:.3f} "
            f"ci95=[{lo:.3f},{hi:.3f}] slack={self.rel_slack:.0%} "
            f"windows={len(self.windows)} detail={self.detail_fraction:.0%}"
        )


class SampledBackend(KernelBackend):
    """Calibrated sampled simulation over the optimized tick.

    ``run(instructions=N, warmup=W)`` interprets ``N`` as the
    *represented* span.  The first window opens after ``W`` detailed
    warmup instructions (the caller's ``detailed_warmup``); each
    subsequent window is preceded by a functional fast-forward gap and
    ``window_warmup`` detailed warmup instructions that re-fill the
    pipeline across the sampling seam.  Each window measures
    ``measure`` instructions.  When the span is too short for the
    requested geometry the window count degrades (down to a single
    window covering the span — i.e. a plain detailed run).

    The returned :class:`~repro.core.stats.CoreStats` aggregates all
    measured windows (``measured_ipc`` is the pooled ratio); the
    per-window error model is left on the simulator as
    ``sim.sampling_report`` for :func:`~repro.core.simulator.simulate`
    to surface.
    """

    name = "sampled"
    exact = False

    def __init__(
        self,
        windows: int = 8,
        measure: int = 800,
        window_warmup: int = 300,
        rel_slack: float = 0.03,
    ):
        if windows < 1:
            raise ConfigError("sampled backend needs at least one window")
        if measure < 1:
            raise ConfigError("sampled window must measure >= 1 instruction")
        if window_warmup < 0:
            raise ConfigError("window warmup cannot be negative")
        if rel_slack < 0:
            raise ConfigError("rel_slack cannot be negative")
        self.windows = windows
        self.measure = measure
        self.window_warmup = window_warmup
        self.rel_slack = rel_slack

    @property
    def token(self) -> str:
        return (
            f"sampled:{self.windows}x{self.measure}"
            f"+{self.window_warmup}"
        )

    simulator_class = OptimizedBackend.simulator_class

    def run(
        self,
        sim: Simulator,
        instructions: int,
        warmup: int = 0,
        max_cycles: Optional[int] = None,
    ) -> CoreStats:
        if instructions < 1:
            raise ConfigError("must simulate at least one instruction")
        stats = sim.stats
        measure = self.measure
        # degrade the geometry to the span: every window needs its
        # warmup + measurement, plus a non-negative gap before windows
        # 2..k; a span too small for 2 windows runs as 1 (full detail)
        k = self.windows
        while k > 1 and (
            warmup + measure
            + (k - 1) * (self.window_warmup + measure)
        ) > instructions:
            k -= 1
        gap = 0
        if k > 1:
            period = (instructions - warmup - measure) // (k - 1)
            gap = period - self.window_warmup - measure
        windows: List[SamplingWindow] = []
        detail = 0
        functional = 0
        for i in range(k):
            if i == 0:
                window_warmup = warmup
            else:
                window_warmup = self.window_warmup
                if gap > 0:
                    sim._functional_stream(gap)
                    functional += gap
            base = stats.retired
            sim.run(
                measure,
                warmup=base + window_warmup,
                max_cycles=max_cycles,
            )
            windows.append(SamplingWindow(
                cycles=stats.measured_cycles,
                retired=stats.measured_retired,
            ))
            detail += window_warmup + stats.measured_retired
            if max_cycles is not None and sim.cycle >= max_cycles:
                break
        # re-base the measurement snapshot so the aggregate stats cover
        # every measured window (pooled-ratio IPC), not just the last
        stats.measure_start_cycle = stats.cycles - sum(
            w.cycles for w in windows
        )
        stats.measure_start_retired = stats.retired - sum(
            w.retired for w in windows
        )
        sim.sampling_report = SamplingReport(
            windows=tuple(windows),
            span=instructions,
            detail_instructions=detail,
            functional_instructions=functional,
            rel_slack=self.rel_slack,
        )
        return stats


# ---------------------------------------------------------------------------
# Selection by name
# ---------------------------------------------------------------------------

#: Every backend by name; :func:`parse_backend` reads it.
BACKENDS: Dict[str, KernelBackend] = {
    backend.name: backend
    for backend in (ReferenceBackend(), OptimizedBackend(), SampledBackend())
}


def parse_backend(
    spec: Union[str, KernelBackend, None]
) -> KernelBackend:
    """Resolve a backend argument: instance, name, or parameter string.

    Accepts a :class:`KernelBackend`, a name in :data:`BACKENDS`,
    ``None`` (the :data:`DEFAULT_BACKEND`) or a parameterised sampled
    spec of the form ``sampled:<windows>x<measure>+<window_warmup>``
    (e.g. ``sampled:8x500+150``).
    """
    if spec is None:
        return BACKENDS[DEFAULT_BACKEND]
    if isinstance(spec, KernelBackend):
        return spec
    if not isinstance(spec, str):
        raise ConfigError(
            f"backend must be a name or KernelBackend (got {spec!r})"
        )
    if spec in BACKENDS:
        return BACKENDS[spec]
    if spec.startswith("sampled:"):
        body = spec[len("sampled:"):]
        try:
            geometry, _, window_warmup = body.partition("+")
            windows, _, measure = geometry.partition("x")
            return SampledBackend(
                windows=int(windows),
                measure=int(measure),
                window_warmup=int(window_warmup) if window_warmup else 300,
            )
        except (ValueError, ConfigError) as exc:
            raise ConfigError(
                f"bad sampled backend spec {spec!r} "
                "(expected sampled:<windows>x<measure>[+<warmup>])"
            ) from exc
    raise ConfigError(
        f"unknown kernel backend {spec!r} "
        f"(available: {', '.join(BACKENDS)})"
    )


# ---------------------------------------------------------------------------
# Equivalence tooling
# ---------------------------------------------------------------------------

class RetireStreamRecorder:
    """Captures a uid-free retire stream for backend comparison.

    ``DynInst`` uids come from a process-global counter, so two runs in
    one process retire different uids for identical streams; the
    recorder therefore keys on ``(pc, opclass, thread, retire_cycle,
    issue_count)`` — everything observable about a retirement except
    the arbitrary uid.  Chains politely with an existing
    ``retire_hook`` (e.g. the golden retire model).
    """

    def __init__(self) -> None:
        self.stream: List[Tuple] = []

    def record(self, inst) -> None:
        """The hook: append one retirement."""
        self.stream.append((
            inst.op.pc,
            inst.op.opclass,
            inst.thread,
            inst.retire_cycle,
            inst.issue_count,
        ))

    def install(self, sim: Simulator) -> None:
        """Attach to ``sim``, preserving any existing retire hook."""
        previous = sim.retire_hook
        if previous is None:
            sim.retire_hook = self.record
        else:
            def chained(inst, _prev=previous, _rec=self.record):
                _prev(inst)
                _rec(inst)

            sim.retire_hook = chained
