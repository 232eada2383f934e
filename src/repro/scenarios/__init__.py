"""Scenario engines: trace replay and phase-varying dynamic workloads.

The subsystem generalises uop supply behind the
:class:`~repro.scenarios.base.WorkloadEngine` contract (any
deterministic, clonable, fast-forwardable stream), and provides two
engine families beyond the synthetic generator:

* :mod:`repro.scenarios.trace` — versioned on-disk uop traces with
  capture (``loopsim trace capture``) and O(1)-seek replay
  (``trace:<path>`` workload names);
* :mod:`repro.scenarios.dynamic` — :class:`PhaseSchedule`-driven
  engines whose profile parameters follow intensity patterns over time
  (``<workload>@<pattern>[:period]`` names), with phase boundaries
  surfaced as obs events for per-phase loop attribution.

``docs/scenarios.md`` documents the trace format, the pattern table,
and the engine API.
"""

from repro.scenarios.base import (
    EngineSpec,
    WorkloadEngine,
    build_engine_for,
    entry_signature,
    profile_signature,
)
from repro.scenarios.dynamic import (
    DEFAULT_PERIOD,
    PATTERNS,
    DynamicSpec,
    DynamicWorkloadEngine,
    PhaseSchedule,
    interpolate_profiles,
    resolve_dynamic,
    stressed_variant,
)
from repro.scenarios.registry import workload_catalog, workload_signature
from repro.scenarios.trace import (
    TRACE_VERSION,
    TraceError,
    TraceExhaustedError,
    TraceReplayEngine,
    TraceSpec,
    capture_trace,
    write_trace,
)

__all__ = [
    "WorkloadEngine",
    "EngineSpec",
    "build_engine_for",
    "entry_signature",
    "profile_signature",
    "PhaseSchedule",
    "DynamicSpec",
    "DynamicWorkloadEngine",
    "PATTERNS",
    "DEFAULT_PERIOD",
    "interpolate_profiles",
    "stressed_variant",
    "resolve_dynamic",
    "TraceError",
    "TraceExhaustedError",
    "TraceReplayEngine",
    "TraceSpec",
    "TRACE_VERSION",
    "capture_trace",
    "write_trace",
    "workload_catalog",
    "workload_signature",
]
