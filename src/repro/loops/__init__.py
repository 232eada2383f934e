"""The paper's micro-architectural loop framework (§1).

A *loop* exists wherever a computation in one pipeline stage is needed
by the same or an earlier stage.  This package gives the framework a
first-class representation: loop length, feedback delay, loop delay
(tight vs loose), recovery stage and recovery time, plus the §1 cost
model (mis-speculation events x useless work).
"""

from repro.loops.model import (
    Loop,
    LoopKind,
    alpha_21264_loops,
    loops_for_config,
)
from repro.loops.analytical import (
    LoopLedger,
    LoopLedgerEntry,
    attribute_slowdown,
    build_ledger,
)

__all__ = [
    "Loop",
    "LoopKind",
    "alpha_21264_loops",
    "loops_for_config",
    "LoopLedger",
    "LoopLedgerEntry",
    "build_ledger",
    "attribute_slowdown",
]
