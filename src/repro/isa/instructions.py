"""Static and dynamic instruction records.

``MicroOp`` is the static form a workload generator emits; it is immutable
and carries ground-truth behaviour (branch direction and target, effective
address) alongside the architectural register identifiers.

``DynInst`` is the mutable in-flight form the pipeline manipulates.  It
accumulates renamed register identifiers, timestamps for every pipeline
event, and the speculation state needed by the load-resolution and
operand-resolution loops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.isa.opclasses import DEFAULT_LATENCIES, OpClass
from repro.isa.registers import ZERO_REG

#: Sentinel cycle value meaning "event has not happened yet".
NEVER = -1


@dataclass(frozen=True)
class MicroOp:
    """A static micro-operation produced by a workload generator.

    Parameters
    ----------
    pc:
        Program counter of the instruction.  Used by branch predictors
        and the BTB; distinct static branch sites must use distinct PCs.
    opclass:
        The operation class (see :class:`~repro.isa.OpClass`).
    srcs:
        Architectural source register identifiers (0, 1 or 2 of them).
        ``ZERO_REG`` sources create no dependence.
    dst:
        Architectural destination register, or ``None`` when the op does
        not write a register.
    address:
        Effective address for loads and stores; ``None`` otherwise.
    taken:
        Ground-truth direction for conditional branches; unconditional
        control transfers are always taken.
    target:
        Ground-truth target PC for control transfers.
    """

    pc: int
    opclass: OpClass
    srcs: Tuple[int, ...] = ()
    dst: Optional[int] = None
    address: Optional[int] = None
    taken: bool = False
    target: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.srcs) > 2:
            raise ValueError(f"at most two source operands supported: {self.srcs}")
        if self.dst is not None and not self.opclass.writes_register:
            raise ValueError(f"{self.opclass} cannot write a register")
        if self.opclass.is_memory and self.address is None:
            raise ValueError(f"{self.opclass} requires an effective address")

    @property
    def exec_latency(self) -> int:
        """Intrinsic execution latency (excluding cache access)."""
        return DEFAULT_LATENCIES[self.opclass]

    @property
    def real_srcs(self) -> Tuple[int, ...]:
        """Source registers that create true dependences (non-zero regs)."""
        return tuple(s for s in self.srcs if s != ZERO_REG)


_dyninst_uid = itertools.count()


@dataclass
class DynInst:
    """A dynamic, in-flight instruction.

    Timestamps are measured in simulator cycles and default to
    :data:`NEVER`.  The operand bookkeeping fields are only used when the
    DRA is enabled.
    """

    op: MicroOp
    thread: int
    uid: int = field(default_factory=lambda: next(_dyninst_uid))

    # --- renamed register state -----------------------------------------
    #: Physical registers backing each *real* source operand.
    src_pregs: List[int] = field(default_factory=list)
    #: Physical register allocated for the destination (None if no dest).
    dst_preg: Optional[int] = None
    #: Physical register previously mapped to the destination arch reg;
    #: freed at retire, restored on squash.
    prev_dst_preg: Optional[int] = None

    # --- cluster slotting ------------------------------------------------
    #: Functional-unit cluster assigned at decode (paper §2: "slotting").
    cluster: int = -1

    # --- pipeline timestamps ----------------------------------------------
    fetch_cycle: int = NEVER
    rename_cycle: int = NEVER
    insert_cycle: int = NEVER       # entered the issue queue
    issue_cycle: int = NEVER        # most recent issue
    first_issue_cycle: int = NEVER
    exec_start_cycle: int = NEVER   # most recent entry into execute
    complete_cycle: int = NEVER     # result available for consumers
    retire_cycle: int = NEVER

    # --- issue/speculation state -------------------------------------------
    #: Number of times the instruction issued (1 = no reissue).
    issue_count: int = 0
    #: True once the instruction has executed with all-valid operands.
    executed: bool = False
    #: True once the IQ entry has been confirmed and released.
    confirmed: bool = False
    #: True when the instruction was squashed (refetch recovery / trap).
    squashed: bool = False

    #: Earliest cycle a reissue may be selected (DRA operand-recovery gate).
    min_reissue_cycle: int = 0
    #: Whether the instruction currently occupies an issue-queue entry.
    in_iq: bool = False
    #: Load must wait for all older stores (store-wait bit set or
    #: conservative memory-dependence policy).
    memdep_wait: bool = False

    # --- DRA operand bookkeeping ---------------------------------------------
    #: Per-real-source flag: operand was pre-read from the register file
    #: during the DEC->IQ traversal (a *completed* operand).
    preread: List[bool] = field(default_factory=list)
    #: Per-real-source flag: operand sits in the IQ payload after an
    #: operand-miss recovery fetched it from the register file.
    payload_valid: List[bool] = field(default_factory=list)
    #: Per-real-source flag: operand already classified for Figure 9.
    operand_counted: List[bool] = field(default_factory=list)

    # --- memory outcome (filled at execute) ------------------------------------
    dcache_hit: Optional[bool] = None
    l2_hit: Optional[bool] = None
    dtlb_hit: Optional[bool] = None
    bank_conflict: bool = False

    # --- branch outcome (filled at fetch/execute) -------------------------------
    predicted_taken: Optional[bool] = None
    btb_hit: Optional[bool] = None
    mispredicted: bool = False

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DynInst) and other.uid == self.uid

    @property
    def opclass(self) -> OpClass:
        """Operation class of the underlying micro-op."""
        return self.op.opclass

    @property
    def is_load(self) -> bool:
        """Whether the instruction is a load."""
        return self.op.opclass is OpClass.LOAD

    def describe(self) -> str:
        """A compact human-readable rendering for logs and debugging."""
        srcs = ",".join(f"r{s}" for s in self.op.srcs) or "-"
        dst = f"r{self.op.dst}" if self.op.dst is not None else "-"
        return (
            f"#{self.uid} t{self.thread} {self.op.opclass.value}"
            f" pc={self.op.pc:#x} {dst}<-{srcs}"
        )
