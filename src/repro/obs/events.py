"""The typed event vocabulary of the observability subsystem.

Every probe point in the simulator emits one of these records.  Events
are small frozen dataclasses with a class-level ``KIND`` string used by
exporters and generic subscribers; all payload fields are primitives
(ints, strs, bools) so events serialise to JSON without any knowledge of
the core's object model — this module deliberately imports nothing from
``repro.core``.

Stage events carry the instruction's ``uid`` (globally unique dynamic
instruction id), its hardware ``thread``, and the simulator ``cycle`` at
which the event occurred.  ``epoch`` is the instruction's issue count at
the time of the event, distinguishing replays of the same instruction.

The one per-cycle event, :class:`CycleEvent`, closes the stream each
simulated cycle and carries the cheap machine-state flags the
loop-attribution engine needs to classify stall cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Tuple


@dataclass(frozen=True)
class Event:
    """Base class: every event has a kind string and a cycle stamp."""

    KIND: ClassVar[str] = "event"

    cycle: int

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready rendering (``kind`` plus all payload fields)."""
        record: Dict[str, Any] = {"kind": self.KIND}
        for spec in fields(self):
            record[spec.name] = getattr(self, spec.name)
        return record


# --------------------------------------------------------------------------
# Instruction lifecycle (emitted by repro.core.pipeline / repro.core.iq)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FetchEvent(Event):
    """An instruction entered the fetch pipe."""

    KIND: ClassVar[str] = "fetch"

    uid: int
    thread: int
    pc: int
    opclass: str


@dataclass(frozen=True)
class RenameEvent(Event):
    """An instruction was renamed (mapped to physical registers).

    Carries the full rename outcome so register-level checkers can
    replay the map: ``arch_dst`` / ``dst_preg`` / ``prev_dst_preg`` are
    ``-1`` for instructions without a destination, ``src_pregs`` are the
    physical sources in operand order, and ``preread[i]`` records the
    DRA's RPFT pre-read decision for ``src_pregs[i]`` (always empty on
    the base machine).  Emitted *after* the rename completed, within the
    rename cycle.
    """

    KIND: ClassVar[str] = "rename"

    uid: int
    thread: int
    arch_dst: int = -1
    dst_preg: int = -1
    prev_dst_preg: int = -1
    src_pregs: Tuple[int, ...] = ()
    preread: Tuple[bool, ...] = ()


@dataclass(frozen=True)
class IQInsertEvent(Event):
    """An instruction allocated its issue-queue entry."""

    KIND: ClassVar[str] = "iq_insert"

    uid: int
    thread: int


@dataclass(frozen=True)
class IssueEvent(Event):
    """An instruction was selected for execution (epoch = issue count)."""

    KIND: ClassVar[str] = "issue"

    uid: int
    thread: int
    epoch: int


@dataclass(frozen=True)
class ExecuteEvent(Event):
    """An instruction reached execute; ``ok`` is False on a replay-bound
    attempt (some operand turned out invalid or missing)."""

    KIND: ClassVar[str] = "execute"

    uid: int
    thread: int
    epoch: int
    ok: bool


@dataclass(frozen=True)
class ReissueEvent(Event):
    """An issued instruction must replay; ``cause`` names the loop
    (``load_miss`` / ``operand_miss`` / ``dependent``)."""

    KIND: ClassVar[str] = "reissue"

    uid: int
    thread: int
    cause: str


@dataclass(frozen=True)
class CompleteEvent(Event):
    """Execution succeeded; the result is available at ``avail_cycle``."""

    KIND: ClassVar[str] = "complete"

    uid: int
    thread: int
    avail_cycle: int


@dataclass(frozen=True)
class ConfirmEvent(Event):
    """The execution stage confirmed the instruction (IQ entry freed)."""

    KIND: ClassVar[str] = "confirm"

    uid: int
    thread: int


@dataclass(frozen=True)
class RetireEvent(Event):
    """The instruction left the machine in program order."""

    KIND: ClassVar[str] = "retire"

    uid: int
    thread: int


@dataclass(frozen=True)
class SquashEvent(Event):
    """The instruction was squashed; ``reason`` names the recovery
    (``load_refetch`` / ``memdep_trap``)."""

    KIND: ClassVar[str] = "squash"

    uid: int
    thread: int
    reason: str


@dataclass(frozen=True)
class DropEvent(Event):
    """An instruction was discarded from the fetch pipe by a flush.

    Distinct from :class:`SquashEvent`: dropped instructions never
    renamed, so they roll back no machine state and are not counted as
    squashes by :class:`~repro.core.stats.CoreStats`.  Together the two
    events make the instruction ledger conserve exactly:
    fetched == retired + squashed + dropped + in flight.
    """

    KIND: ClassVar[str] = "drop"

    uid: int
    thread: int


# --------------------------------------------------------------------------
# Loop resolution points
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OperandEvent(Event):
    """One source operand was classified at execute.

    ``source`` is an :class:`~repro.core.stats.OperandSource` value
    string: ``preread`` / ``forward`` / ``crc`` / ``miss`` (the operand
    resolution loop's mis-speculation) / ``regfile`` (base machine).
    """

    KIND: ClassVar[str] = "operand"

    uid: int
    thread: int
    preg: int
    source: str


@dataclass(frozen=True)
class LoadResolvedEvent(Event):
    """A load learned its true latency.

    ``hit`` is True when the load behaved like the speculated L1 hit;
    ``speculated`` is False under the STALL recovery policy (dependents
    never speculate, so a miss is not a mis-speculation).
    """

    KIND: ClassVar[str] = "load_resolved"

    uid: int
    thread: int
    hit: bool
    speculated: bool
    latency: int


@dataclass(frozen=True)
class BranchOutcomeEvent(Event):
    """A control instruction's prediction was checked at fetch.

    ``flavor`` is ``cond`` / ``return`` / ``call`` / ``jump``; only the
    first two can mispredict in this front end.
    """

    KIND: ClassVar[str] = "branch_outcome"

    uid: int
    thread: int
    pc: int
    flavor: str
    taken: bool
    mispredicted: bool


@dataclass(frozen=True)
class PredictorEvent(Event):
    """A direction predictor was trained (emitted from ``repro.branch``
    via :class:`~repro.branch.predictors.ProbedPredictor`)."""

    KIND: ClassVar[str] = "predictor"

    pc: int
    predicted: bool
    taken: bool


@dataclass(frozen=True)
class CRCEvent(Event):
    """Cluster-register-cache activity (emitted from ``repro.core.dra``).

    ``action`` is ``hit`` / ``miss`` / ``insert`` / ``invalidate`` /
    ``evict`` (FIFO replacement pushed the entry out).
    """

    KIND: ClassVar[str] = "crc"

    preg: int
    cluster: int
    action: str


@dataclass(frozen=True)
class WritebackEvent(Event):
    """A physical register's value was written back to the register file
    (the point where the RPFT bit for ``preg`` is set)."""

    KIND: ClassVar[str] = "writeback"

    preg: int


# --------------------------------------------------------------------------
# Per-cycle sample
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleEvent(Event):
    """End-of-cycle sample: stall flags for cycle attribution.

    Emitted once per :meth:`~repro.core.pipeline.Simulator.tick` after
    all stage events of that cycle, so subscribers can treat it as the
    cycle boundary.
    """

    KIND: ClassVar[str] = "cycle"

    #: Some thread's fetch is blocked on an unresolved branch.
    branch_stall: bool
    #: The issue queue is at capacity.
    iq_full: bool
    #: The in-flight window (ROB) is at capacity.
    rob_full: bool
    #: Issue opportunities lost to register-file read-port limits this
    #: cycle (defaults to 0 for emitters predating port accounting).
    port_stalls: int = 0
