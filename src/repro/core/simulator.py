"""High-level simulation entry point.

:func:`simulate` is the one-call API used by examples, tests and
benchmarks: resolve a workload name (single benchmark or SMT pair),
build a :class:`~repro.core.pipeline.Simulator`, run warmup plus a
measurement window, and wrap everything in a :class:`SimResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.core.backend import KernelBackend, SamplingReport, parse_backend
from repro.core.config import CoreConfig
from repro.core.stats import CoreStats
from repro.errors import ConfigError
from repro.workloads import WorkloadProfile, workload_profiles

#: Default measurement window, sized so loop phenomena reach steady
#: state while keeping pure-Python runs fast (DESIGN.md §3).
DEFAULT_INSTRUCTIONS = 20_000
#: Functional (fast-forward) warmup ops per thread: trains predictors,
#: BTB, caches and TLB, standing in for the paper's 1-2 M skipped
#: instructions.
DEFAULT_WARMUP = 100_000
#: Detailed-pipeline warmup before the measurement window opens.
DEFAULT_DETAILED_WARMUP = 1_500


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    workload: str
    config: CoreConfig
    stats: CoreStats
    seed: int
    #: cache token of the kernel backend that produced the run
    backend: str = "reference"
    #: error model when the run was sampled rather than exact
    sampling: Optional[SamplingReport] = None

    @property
    def ipc(self) -> float:
        """Post-warmup instructions per cycle."""
        return self.stats.measured_ipc

    def speedup_over(self, baseline: "SimResult") -> float:
        """This run's IPC relative to ``baseline`` (1.0 = equal)."""
        if baseline.ipc == 0:
            raise ZeroDivisionError("baseline run retired nothing")
        return self.ipc / baseline.ipc

    def describe(self) -> str:
        """A one-line human-readable summary."""
        return (
            f"{self.workload:>18s} {self.config.label:>10s} "
            f"ipc={self.ipc:5.2f} reissues={self.stats.total_reissues:6d} "
            f"bmiss={self.stats.branch_mispredict_rate:6.1%} "
            f"l1miss={self.stats.load_l1_miss_rate:6.1%}"
        )


def simulate(
    workload: Union[str, List[WorkloadProfile]],
    config: Optional[CoreConfig] = None,
    instructions: int = DEFAULT_INSTRUCTIONS,
    warmup: int = DEFAULT_WARMUP,
    detailed_warmup: int = DEFAULT_DETAILED_WARMUP,
    seed: int = 0,
    max_cycles: Optional[int] = None,
    obs=None,
    verifier=None,
    backend: Union[str, KernelBackend, None] = None,
    warm: Optional[bytes] = None,
) -> SimResult:
    """Simulate ``workload`` on ``config`` and return the result.

    Parameters
    ----------
    workload:
        A workload name (``"swim"``, ``"go+su2cor"``, ...) or an explicit
        list of per-thread profiles.
    config:
        Machine description; defaults to the paper's base machine.
    instructions:
        Retired instructions in the measurement window.
    warmup:
        Functional fast-forward ops per thread before detailed
        simulation (trains predictors, BTB, caches, TLB).
    detailed_warmup:
        Instructions retired under detailed simulation before the
        measurement window opens (fills the pipeline to steady state).
    seed:
        Workload generation seed.
    max_cycles:
        Optional hard cycle cap (for tests).
    obs:
        Optional :class:`~repro.obs.bus.EventBus` attached to every
        probe point for the detailed-simulation phase (after functional
        warmup, so traces are not flooded with warmup training events).
    verifier:
        Optional :class:`~repro.verify.Verifier` (or any object with the
        same ``attach(simulator, bus)`` / ``finish(stats)`` protocol).
        Attached alongside ``obs`` — on the same bus when one is given,
        on a private bus otherwise — and finalised after the run, so the
        returned result has been checked against the golden model and
        the event-stream invariants.  Inspect ``verifier.violations``
        (or call ``verifier.raise_if_failed()``) afterwards.
    backend:
        Kernel backend selection: a registered name (``"reference"``,
        ``"optimized"``, ``"sampled"``), a parameterised spec like
        ``"sampled:8x500+150"``, a :class:`~repro.core.backend.
        KernelBackend` instance, or ``None`` for
        :data:`~repro.core.backend.DEFAULT_BACKEND` (the compiled exact
        kernel; pass ``"reference"`` for the ground-truth loop).
        Verification requires an exact backend (bit-identical retire
        stream); combining ``verifier`` with an inexact backend raises
        :class:`~repro.errors.ConfigError`.
    warm:
        Optional :func:`warm_snapshot` bytes restored in place of the
        functional warmup.  They must carry this run's warm key
        (:meth:`~repro.core.pipeline.Simulator.warm_key`: workload,
        seed, ``warmup``, simulator class and memory/branch config),
        else :class:`~repro.errors.ConfigError`.  The result is
        identical to warming afresh.
    """
    if instructions < 1:
        raise ConfigError(
            f"instructions must be >= 1 (got {instructions})"
        )
    if detailed_warmup < 0:
        raise ConfigError(
            f"detailed_warmup cannot be negative (got {detailed_warmup})"
        )
    config, name, profiles, kernel = _prepare(workload, config, warmup, backend)
    if verifier is not None and not kernel.exact:
        raise ConfigError(
            f"backend {kernel.token!r} is not exact and cannot be "
            "verified; use an exact backend (reference/optimized) or "
            "validate sampled runs via SamplingReport.cross_check"
        )
    simulator = kernel.build(config, profiles, seed=seed)
    if warm is not None:
        simulator.restore_warmup(warm, warmup)
    elif warmup:
        simulator.functional_warmup(warmup)
    if verifier is not None:
        if obs is None:
            from repro.obs.bus import EventBus

            obs = EventBus()
        verifier.attach(simulator, obs)
    if obs is not None:
        simulator.attach_obs(obs)
    kernel.run(
        simulator, instructions, warmup=detailed_warmup, max_cycles=max_cycles
    )
    if verifier is not None:
        verifier.finish(simulator.stats)
    return SimResult(
        workload=name,
        config=config,
        stats=simulator.stats,
        seed=seed,
        backend=kernel.token,
        sampling=simulator.sampling_report,
    )


def warm_snapshot(
    workload: Union[str, List[WorkloadProfile]],
    config: Optional[CoreConfig] = None,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 0,
    backend: Union[str, KernelBackend, None] = None,
) -> bytes:
    """The functional warmup :func:`simulate` would run, as bytes.

    Pass them as ``simulate(..., warm=...)`` to every run sharing the
    warm key — typically cells that differ only in loop knobs — to
    warm once instead of once per run.
    """
    config, _, profiles, kernel = _prepare(workload, config, warmup, backend)
    return kernel.build(config, profiles, seed=seed).snapshot_warmup(warmup)


def _prepare(workload, config, warmup, backend):
    """Validate and resolve what a run and its warmup share:
    ``(config, name, profiles, kernel)``."""
    if warmup < 0:
        raise ConfigError(f"warmup cannot be negative (got {warmup})")
    if config is None:
        config = CoreConfig.base()
    if isinstance(workload, str):
        name = workload
        # raises WorkloadError for unknown names
        profiles = workload_profiles(workload)
    else:
        profiles = list(workload)
        name = "+".join(p.name for p in profiles)
    if not profiles:
        raise ConfigError("workload resolved to an empty profile list")
    return config, name, profiles, parse_backend(backend)
