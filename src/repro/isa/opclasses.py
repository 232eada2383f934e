"""Operation classes and their execution latencies.

Latencies follow the Alpha 21264-era numbers the paper's base machine
implies: single-cycle integer ALU (the tight forwarding loop of Figure 2
requires back-to-back dependent execution), multi-cycle multiply and
floating-point pipes, and loads whose total latency is one address
generation cycle plus a data-cache access of non-deterministic length
(the source of the load resolution loop).
"""

from __future__ import annotations

import enum


class OpClass(enum.Enum):
    """Classes of micro-operations understood by the pipeline."""

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP_ADD = "fp_add"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    CALL = "call"
    RETURN = "return"
    NOP = "nop"
    MEM_BARRIER = "mem_barrier"

    # Members are singletons compared by identity, so the C-level
    # identity hash is enough.  Enum's default hashes the member name in
    # Python code on every set or dict lookup (the ``is_memory`` /
    # ``is_control`` tests below run once per simulated instruction),
    # and that string hash is randomised per process anyway.
    __hash__ = object.__hash__

    @property
    def is_memory(self) -> bool:
        """Whether the op accesses the data cache."""
        return self in MEMORY_CLASSES

    @property
    def is_control(self) -> bool:
        """Whether the op can redirect the fetch stream."""
        return self in _CONTROL_CLASSES

    @property
    def is_conditional(self) -> bool:
        """Whether the op's direction must be predicted."""
        return self is OpClass.BRANCH

    @property
    def writes_register(self) -> bool:
        """Whether the op produces a register result.

        Stores, branches and barriers produce no register value; calls
        write the return-address register.
        """
        return self not in _NO_DEST_CLASSES


MEMORY_CLASSES = frozenset({OpClass.LOAD, OpClass.STORE})

_CONTROL_CLASSES = frozenset(
    {OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RETURN}
)

_NO_DEST_CLASSES = frozenset(
    {
        OpClass.STORE,
        OpClass.BRANCH,
        OpClass.JUMP,
        OpClass.RETURN,
        OpClass.NOP,
        OpClass.MEM_BARRIER,
    }
)

#: Execution latency in cycles, *excluding* the data-cache access of
#: loads and stores (that part is determined by the memory hierarchy at
#: execute time) and excluding all pipeline-traversal latencies.
DEFAULT_LATENCIES = {
    OpClass.INT_ALU: 1,
    OpClass.INT_MUL: 7,
    OpClass.INT_DIV: 16,
    OpClass.FP_ADD: 4,
    OpClass.FP_MUL: 4,
    OpClass.FP_DIV: 12,
    OpClass.LOAD: 1,  # address generation; cache access is added on top
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
    OpClass.JUMP: 1,
    OpClass.CALL: 1,
    OpClass.RETURN: 1,
    OpClass.NOP: 1,
    OpClass.MEM_BARRIER: 1,
}
