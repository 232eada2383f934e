"""Scenario engines: trace replay behind the workload-engine contract.

The subsystem generalises uop supply behind the
:class:`~repro.scenarios.base.WorkloadEngine` contract (any
deterministic, clonable, fast-forwardable stream), and provides one
engine family beyond the synthetic generator:

* :mod:`repro.scenarios.trace` — versioned on-disk uop traces with
  capture (``loopsim trace capture``) and O(1)-seek replay
  (``trace:<path>`` workload names).

``docs/scenarios.md`` documents the trace format and the engine API.
"""

from repro.scenarios.base import (
    EngineSpec,
    WorkloadEngine,
    build_engine_for,
    entry_signature,
    profile_signature,
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
