"""Differential verification subsystem.

Three independent lines of defence against timing-model bugs:

* a **golden retire model** (:class:`GoldenRetireModel`) — an in-order
  reference replaying the same deterministic micro-op stream, checked
  against every retirement;
* **event-stream invariant checkers** (:mod:`repro.verify.invariants`)
  over the observability bus — instruction conservation, rename-map
  consistency, dataflow/reissue closure, CRC/RPFT coherence — plus the
  metrics and loop-attribution reconciliation cross-checks;
* **differential configuration runs** (:mod:`repro.verify.differential`)
  — cross-machine laws like "an infinite register cache makes the DRA
  cycle-identical to the base machine";

plus a **workload fuzzer** with a delta-debugging shrinker
(:mod:`repro.verify.fuzz`) that drives all of the above over random
configurations and profiles and writes minimal JSON reproducers.

Entry points: ``repro verify`` on the command line,
:class:`Verifier` / :func:`verified_simulate` in code, and
``HarnessSettings(verify=True)`` to self-check every harness cell.
"""

from repro.verify.differential import (
    DifferentialCheck,
    check_dra_base_equivalence,
    check_infinite_crc,
    check_port_sufficiency,
    check_rf_monotonicity,
    check_ssr_zero_threshold,
    check_stall_recovery,
    check_warm_restore,
    run_differential_checks,
)
from repro.verify.fuzz import (
    INJECTIONS,
    FuzzCase,
    FuzzFailure,
    FuzzResult,
    fuzz,
    load_reproducer,
    make_reproducer,
    profile_from_dict,
    profile_to_dict,
    random_case,
    replay,
    run_case,
    shrink,
    write_reproducer,
)
from repro.verify.invariants import (
    ConservationChecker,
    CRCCoherenceChecker,
    DataflowChecker,
    InvariantChecker,
    RenameChecker,
    Violation,
)
from repro.verify.oracle import GoldenRetireModel
from repro.verify.runner import (
    SweepEntry,
    Verifier,
    dra_variant,
    verified_simulate,
    verify_presets,
)

__all__ = [
    "Verifier",
    "verified_simulate",
    "verify_presets",
    "SweepEntry",
    "dra_variant",
    "Violation",
    "InvariantChecker",
    "ConservationChecker",
    "RenameChecker",
    "DataflowChecker",
    "CRCCoherenceChecker",
    "GoldenRetireModel",
    "DifferentialCheck",
    "run_differential_checks",
    "check_dra_base_equivalence",
    "check_infinite_crc",
    "check_port_sufficiency",
    "check_rf_monotonicity",
    "check_ssr_zero_threshold",
    "check_stall_recovery",
    "check_warm_restore",
    "FuzzCase",
    "FuzzFailure",
    "FuzzResult",
    "INJECTIONS",
    "fuzz",
    "run_case",
    "shrink",
    "random_case",
    "replay",
    "make_reproducer",
    "write_reproducer",
    "load_reproducer",
    "profile_to_dict",
    "profile_from_dict",
]
