"""The out-of-order SMT core and the Distributed Register Algorithm.

``CoreConfig`` describes the machine (pipeline depths, issue queue,
clusters, recovery policies, optional DRA); ``Simulator`` runs it over
synthetic workloads; ``simulate`` / ``SimResult`` are the high-level
entry points used by examples, tests and benchmarks.
"""

from repro.core.config import (
    CoreConfig,
    DRAConfig,
    LoadRecovery,
)
from repro.core.stats import CoreStats, OperandSource
from repro.core.pipeline import Simulator
from repro.core.backend import (
    BACKENDS,
    KernelBackend,
    SamplingReport,
    parse_backend,
)
from repro.core.simulator import SimResult, simulate

__all__ = [
    "CoreConfig",
    "DRAConfig",
    "LoadRecovery",
    "CoreStats",
    "OperandSource",
    "Simulator",
    "BACKENDS",
    "KernelBackend",
    "SamplingReport",
    "parse_backend",
    "SimResult",
    "simulate",
]
