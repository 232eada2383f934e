"""Benchmark suite definitions.

The paper evaluates ten single-threaded Spec95 codes plus three SMT
pairs.  :func:`workload_profiles` resolves a suite name — single
benchmark or pair — into the per-thread entry list the simulator
consumes.  Beyond the paper's names it resolves the scenario
vocabulary (:mod:`repro.scenarios`):

* scenario profile families (``pointer_chase``, ``interp_dispatch``,
  ``server_icache``) and heterogeneous SMT mixes over them;
* ``trace:<path>`` — replay of a captured uop trace.

A trace entry is a :class:`~repro.scenarios.trace.TraceSpec` rather
than a plain profile; the simulator builds its replay engine per
thread.  ``ALL_WORKLOADS`` — the paper's figure suite — is
deliberately untouched by any of this.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import WorkloadError
from repro.workloads.profiles import (
    SCENARIO_PROFILES,
    SMOKE_PROFILES,
    SPEC95_PROFILES,
    WorkloadProfile,
)

INT_WORKLOADS: Tuple[str, ...] = ("compress", "gcc", "go", "m88ksim")

FP_WORKLOADS: Tuple[str, ...] = (
    "apsi", "hydro2d", "mgrid", "su2cor", "swim", "turb3d",
)

#: SMT pairs, keyed by the paper's names.
SMT_PAIRS: Dict[str, Tuple[str, str]] = {
    "m88ksim+compress": ("m88ksim", "compress"),
    "go+su2cor": ("go", "su2cor"),
    "apsi+swim": ("apsi", "swim"),
}

#: Every workload name in the paper's figures, in figure order.
ALL_WORKLOADS: Tuple[str, ...] = (
    INT_WORKLOADS + FP_WORKLOADS + tuple(SMT_PAIRS)
)

#: Resolvable smoke workloads (CI runs; never in ALL_WORKLOADS).
SMOKE_WORKLOADS: Tuple[str, ...] = tuple(SMOKE_PROFILES)

#: Heterogeneous SMT mixes over the scenario families: a latency-bound
#: thread paired with a front-end-hostile or throughput thread.  Kept
#: out of SMT_PAIRS (hence out of ALL_WORKLOADS) so figure campaigns
#: never change shape.
SCENARIO_PAIRS: Dict[str, Tuple[str, str]] = {
    "server+pointer": ("server_icache", "pointer_chase"),
    "interp+swim": ("interp_dispatch", "swim"),
    "pointer+compress": ("pointer_chase", "compress"),
}

#: Statically named scenario workloads (families + mixes).  Trace
#: (``trace:``) names are open-ended syntax, not a finite list.
SCENARIO_WORKLOADS: Tuple[str, ...] = (
    tuple(SCENARIO_PROFILES) + tuple(SCENARIO_PAIRS)
)


def _named_profile(name: str) -> WorkloadProfile:
    for registry in (SPEC95_PROFILES, SCENARIO_PROFILES, SMOKE_PROFILES):
        if name in registry:
            return registry[name]
    raise WorkloadError(f"unknown workload {name!r}")


def workload_profiles(name: str) -> List[WorkloadProfile]:
    """Resolve a workload name to one entry per hardware thread.

    Single benchmarks return a one-element list; SMT pair names return
    two entries.  Plain names resolve to
    :class:`~repro.workloads.WorkloadProfile`; ``trace:`` names resolve
    to a :class:`~repro.scenarios.trace.TraceSpec`.  Raises
    :class:`~repro.errors.WorkloadError` for unknown names.
    """
    if name in SPEC95_PROFILES:
        return [SPEC95_PROFILES[name]]
    if name in SMT_PAIRS:
        return [SPEC95_PROFILES[part] for part in SMT_PAIRS[name]]
    if name in SMOKE_PROFILES:
        return [SMOKE_PROFILES[name]]
    if name in SCENARIO_PROFILES:
        return [SCENARIO_PROFILES[name]]
    if name in SCENARIO_PAIRS:
        return [_named_profile(part) for part in SCENARIO_PAIRS[name]]
    # trace syntax (lazy import: repro.scenarios imports this module)
    if name.startswith("trace:"):
        from repro.scenarios.trace import TraceSpec

        path = name[len("trace:"):]
        if not path:
            raise WorkloadError("trace: workload needs a path (trace:<path>)")
        return [TraceSpec(path)]
    raise WorkloadError(
        f"unknown workload {name!r}; known: "
        f"{', '.join(ALL_WORKLOADS + SMOKE_WORKLOADS + SCENARIO_WORKLOADS)} "
        "— plus trace:<path>"
    )
