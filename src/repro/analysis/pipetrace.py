"""Pipeline tracing: per-instruction stage timelines ("pipeview").

Renders the journey of each instruction through the pipe as a text
Gantt chart, the way ASIM-family tools visualise their models::

    #1017 t0 load      F....R..Q....I----X..C.....T
    #1018 t0 int_alu   .F....R..Q..i...I----X.T

Legend: F fetch, R rename, Q IQ insert, I (final) issue, X execute,
C complete (result available), T retire; ``i`` marks earlier issues of
a replayed instruction, ``s`` a squash, ``-`` the IQ->EX traversal,
``.`` waiting.

Stage timestamps come from two sources: the retire hook supplies the
authoritative per-instruction record, while an attached
:class:`~repro.obs.bus.EventBus` supplies *every* issue and squash
timestamp — a replayed instruction's earlier issues are overwritten on
the instruction object, and a squashed instruction never reaches the
retire hook at all, so neither is recoverable without the event stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.config import CoreConfig
from repro.core.pipeline import Simulator
from repro.obs.bus import EventBus
from repro.obs.events import (
    FetchEvent,
    IQInsertEvent,
    IssueEvent,
    RenameEvent,
    SquashEvent,
)
from repro.workloads import WorkloadProfile, workload_profiles


@dataclass(frozen=True)
class TraceRow:
    """Stage timestamps of one traced instruction.

    ``issue``/``exec_start``/``complete``/``retire`` are the *final*
    attempt's timestamps (-1 when the stage was never reached);
    ``issues`` lists every issue timestamp including replays, and
    ``squashes`` every squash.  Squashed instructions appear only when
    the trace was collected with ``include_squashed=True``.
    """

    uid: int
    thread: int
    opclass: str
    pc: int
    fetch: int
    rename: int
    insert: int
    issue: int
    exec_start: int
    complete: int
    retire: int
    issue_count: int
    #: every issue timestamp, oldest first (replays included)
    issues: Tuple[int, ...] = ()
    #: squash timestamps (non-empty only for squashed rows)
    squashes: Tuple[int, ...] = ()

    @property
    def latency(self) -> int:
        """Fetch-to-retire lifetime in cycles (fetch-to-squash when the
        instruction never retired)."""
        return self.end - self.fetch

    @property
    def squashed(self) -> bool:
        """Whether this row records a squashed (never retired) instruction."""
        return self.retire < 0

    @property
    def end(self) -> int:
        """Last cycle of the row's lifetime (retire or final squash)."""
        if self.retire >= 0:
            return self.retire
        events = [self.fetch, self.rename, self.insert, self.issue,
                  self.exec_start, self.complete]
        events.extend(self.issues)
        events.extend(self.squashes)
        return max(events)


class _EventLog:
    """Per-uid issue/squash (and squashed-row stage) records."""

    def __init__(self, bus: EventBus):
        self.issues: Dict[int, List[int]] = {}
        self.squashes: Dict[int, List[int]] = {}
        self.fetches: Dict[int, FetchEvent] = {}
        self.renames: Dict[int, int] = {}
        self.inserts: Dict[int, int] = {}
        bus.subscribe(FetchEvent, self._on_fetch)
        bus.subscribe(RenameEvent, self._on_rename)
        bus.subscribe(IQInsertEvent, self._on_insert)
        bus.subscribe(IssueEvent, self._on_issue)
        bus.subscribe(SquashEvent, self._on_squash)

    def _on_fetch(self, event: FetchEvent) -> None:
        self.fetches[event.uid] = event

    def _on_rename(self, event: RenameEvent) -> None:
        self.renames[event.uid] = event.cycle

    def _on_insert(self, event: IQInsertEvent) -> None:
        self.inserts[event.uid] = event.cycle

    def _on_issue(self, event: IssueEvent) -> None:
        self.issues.setdefault(event.uid, []).append(event.cycle)

    def _on_squash(self, event: SquashEvent) -> None:
        self.squashes.setdefault(event.uid, []).append(event.cycle)

    def squashed_row(self, uid: int) -> Optional[TraceRow]:
        """Reconstruct a row for an instruction that never retired."""
        fetch = self.fetches.get(uid)
        if fetch is None:
            return None
        issues = tuple(self.issues.get(uid, ()))
        return TraceRow(
            uid=uid,
            thread=fetch.thread,
            opclass=fetch.opclass,
            pc=fetch.pc,
            fetch=fetch.cycle,
            rename=self.renames.get(uid, -1),
            insert=self.inserts.get(uid, -1),
            issue=issues[-1] if issues else -1,
            exec_start=-1,
            complete=-1,
            retire=-1,
            issue_count=len(issues),
            issues=issues,
            squashes=tuple(self.squashes.get(uid, ())),
        )


def collect_trace(
    workload: Union[str, List[WorkloadProfile]],
    config: Optional[CoreConfig] = None,
    instructions: int = 40,
    skip: int = 2_000,
    warmup: int = 30_000,
    seed: int = 0,
    include_squashed: bool = False,
) -> List[TraceRow]:
    """Run a simulation and capture ``instructions`` retired rows.

    ``skip`` instructions retire (after functional ``warmup``) before
    capture starts, so the trace shows steady-state behaviour.  With
    ``include_squashed=True``, instructions squashed inside the capture
    window are appended as extra rows (reconstructed from the event
    stream; marked by :attr:`TraceRow.squashed`).
    """
    if isinstance(workload, str):
        profiles = workload_profiles(workload)
    else:
        profiles = list(workload)
    config = config or CoreConfig.base()
    # the reference kernel by name: the readable, ground-truth loop
    simulator = Simulator(config, profiles, seed=seed)
    if warmup:
        simulator.functional_warmup(warmup)
    bus = EventBus()
    log = _EventLog(bus)
    simulator.attach_obs(bus)
    rows: List[TraceRow] = []
    squashed_uids: List[int] = []
    captured = 0
    capture_floor_uid: Optional[int] = None

    def capturing() -> bool:
        return simulator.retired > skip and captured < instructions

    def hook(inst) -> None:
        nonlocal captured, capture_floor_uid
        if not capturing():
            return
        captured += 1
        if capture_floor_uid is None:
            capture_floor_uid = inst.uid
        rows.append(
            TraceRow(
                uid=inst.uid,
                thread=inst.thread,
                opclass=inst.op.opclass.value,
                pc=inst.op.pc,
                fetch=inst.fetch_cycle,
                rename=inst.rename_cycle,
                insert=inst.insert_cycle,
                issue=inst.issue_cycle,
                exec_start=inst.exec_start_cycle,
                complete=inst.complete_cycle,
                retire=inst.retire_cycle,
                issue_count=inst.issue_count,
                issues=tuple(log.issues.get(inst.uid, ())),
                squashes=tuple(log.squashes.get(inst.uid, ())),
            )
        )

    def on_squash(event: SquashEvent) -> None:
        if capturing():
            squashed_uids.append(event.uid)

    simulator.retire_hook = hook
    if include_squashed:
        bus.subscribe(SquashEvent, on_squash)
    simulator.run(skip + instructions + 64)
    rows = rows[:instructions]
    if include_squashed and capture_floor_uid is not None:
        for uid in squashed_uids:
            if uid < capture_floor_uid:
                continue
            row = log.squashed_row(uid)
            if row is not None:
                rows.append(row)
        rows.sort(key=lambda r: r.uid)
    return rows


def render_pipetrace(rows: List[TraceRow], width: int = 100) -> str:
    """Render trace rows as an aligned text Gantt chart."""
    if not rows:
        return "(empty trace)"
    origin = min(row.fetch for row in rows)
    span = max(row.end for row in rows) - origin + 1
    lines = [
        f"pipetrace: {len(rows)} instructions, cycles "
        f"{origin}..{origin + span - 1}"
        + (" (clipped)" if span > width else ""),
        "legend: F fetch  R rename  Q insert  i reissued issue  "
        "I issue  - IQ->EX  X execute  C complete  T retire  s squash",
        "",
    ]
    for row in rows:
        chart = [" "] * min(span, width)

        def mark(cycle: int, char: str) -> None:
            if cycle < 0:
                return
            offset = cycle - origin
            if 0 <= offset < len(chart):
                # later stages overwrite idle fillers, never real marks
                if chart[offset] in (" ", "."):
                    chart[offset] = char

        for start, end in ((row.fetch, row.end),):
            for cycle in range(start, min(end, origin + len(chart))):
                mark(cycle, ".")
        if row.issue >= 0 and row.exec_start >= 0:
            for cycle in range(row.issue, row.exec_start):
                mark(cycle, "-")
        mark(row.fetch, "F")
        mark(row.rename, "R")
        mark(row.insert, "Q")
        for cycle in row.issues[:-1]:
            mark(cycle, "i")
        mark(row.issue, "I")
        mark(row.exec_start, "X")
        mark(row.complete, "C")
        mark(row.retire, "T")
        for cycle in row.squashes:
            mark(cycle, "s")
        notes = []
        if row.issue_count > 1:
            notes.append(f"issues={row.issue_count}")
        if row.squashed:
            notes.append("squashed")
        suffix = f" ({', '.join(notes)})" if notes else ""
        lines.append(
            f"#{row.uid:<7d} t{row.thread} {row.opclass:<9s} "
            f"{''.join(chart)}{suffix}"
        )
    return "\n".join(lines)
