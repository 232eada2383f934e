"""repro.perfhist — per-commit performance history with degradation detection.

A Perun-style version-controlled performance ledger: every commit's
simulated-IPC profiles (golden-pin cells, exploration frontier points)
and simulator-throughput profiles (the kernel backend matrix) are
appended to a committed ``PERF_HISTORY.jsonl``, each carrying the
:mod:`repro.obs` loop-attribution and metrics snapshot of the run that
produced it.  A pluggable detector layer judges each new epoch against
its history — exact-integer equality for deterministic cells, declared
CI bands for sampled runs, best-model regression fits for throughput
series — and a detected change is attributed to the loop bucket whose
cycle share moved, not just reported as a delta.

Entry points: ``loopsim perf record|log|check|attribute|import`` and
the CI ``perf-history`` gate.  See ``docs/perfhist.md``.
"""

from repro.perfhist.detectors import (
    BestModelDetector,
    CIBandDetector,
    Detector,
    ExactIntegerDetector,
    Observation,
    RelativeBandDetector,
    TrackOnlyDetector,
    Verdict,
    available_detectors,
    get_detector,
    register_detector,
)
from repro.perfhist.history import (
    HISTORY_SCHEMA,
    Epoch,
    PerfHistory,
    Profile,
    commit_of,
)
from repro.perfhist.check import (
    CheckReport,
    Finding,
    attribution_shift,
    check_epoch,
)
from repro.perfhist.profile import (
    GOLDEN_RUN,
    RF_LATENCIES,
    frontier_profiles,
    golden_cells,
    import_explore_bench,
    import_kernel_bench,
    ipc_profiles,
    kernel_profiles,
    record_epoch,
    sampled_profile,
)

__all__ = [
    "BestModelDetector",
    "CIBandDetector",
    "Detector",
    "ExactIntegerDetector",
    "Observation",
    "RelativeBandDetector",
    "TrackOnlyDetector",
    "Verdict",
    "available_detectors",
    "get_detector",
    "register_detector",
    "HISTORY_SCHEMA",
    "Epoch",
    "PerfHistory",
    "Profile",
    "commit_of",
    "CheckReport",
    "Finding",
    "attribution_shift",
    "check_epoch",
    "GOLDEN_RUN",
    "RF_LATENCIES",
    "frontier_profiles",
    "golden_cells",
    "import_explore_bench",
    "import_kernel_bench",
    "ipc_profiles",
    "kernel_profiles",
    "record_epoch",
    "sampled_profile",
]
