"""Loop attribution: the paper's §1-§2 cost model, measured live.

The paper decomposes lost performance per micro-architectural loop as::

    events       = loop occurrences x mis-speculation rate
    cycles lost ~= events x (loop delay + recovery time + queueing)

The analytical ledger (:mod:`repro.loops.analytical`) fills that formula
with *modelled* per-event impacts.  This engine instead measures the
realised cost from the event stream: every simulated cycle is assigned
to exactly one bucket —

* **useful** — at least one instruction retired that cycle;
* **load_resolution** — no retire, and a load-loop replay (a reissue
  caused by a mis-speculated load, directly or transitively) was in
  flight;
* **operand_resolution** — no retire, and a DRA operand-miss recovery
  was in flight;
* **port_pressure** — no retire, no pending replay, and some cluster
  lost an issue opportunity to the register-file read-port limit;
* **branch_resolution** — no retire, and some thread's fetch was
  blocked on an unresolved branch;
* **other** — no retire and none of the above (front-end fill, memory
  latency the window failed to hide, drain effects).

The data-loop buckets take precedence over the port and branch buckets
because a pending replay is a *positively identified* mis-speculation
recovery; port pressure in turn takes precedence over the branch bucket
because a lost issue slot is a positively observed structural stall,
whereas a branch stall can overlap arbitrary other work; the priority is
fixed and documented so totals are reproducible.  By construction::

    useful + sum(per-loop lost) + other == total cycles

which is the reconciliation invariant the tests assert.

Loop *occurrences* and *mis-speculations* are counted from the same
stream (branch outcomes at fetch, load resolutions at execute, operand
classifications at execute), and the per-loop delay comes from the
configured loop geometry (:func:`repro.loops.model.loops_for_config`),
so one report carries the full (delay, frequency, rate, lost cycles,
lost IPC) tuple per loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.report import format_heading, format_table
from repro.loops.model import loops_for_config
from repro.obs.bus import EventBus
from repro.obs.events import (
    BranchOutcomeEvent,
    CycleEvent,
    ExecuteEvent,
    LoadResolvedEvent,
    OperandEvent,
    ReissueEvent,
    RetireEvent,
    SquashEvent,
)

#: Bucket names, in classification priority order (data loops first —
#: see module docstring), then the catch-all.
BRANCH_LOOP = "branch_resolution"
LOAD_LOOP = "load_resolution"
OPERAND_LOOP = "operand_resolution"
PORT_PRESSURE = "port_pressure"
OTHER = "other"

#: Reissue causes mapped to the loop whose recovery they are.
_CAUSE_LOOP = {
    "load_miss": LOAD_LOOP,
    "dependent": LOAD_LOOP,
    "operand_miss": OPERAND_LOOP,
}


@dataclass
class AttributionEntry:
    """One loop's measured attribution row."""

    name: str
    #: Loop delay (length + feedback) from the configured geometry;
    #: 0 for the catch-all bucket.
    loop_delay: int
    occurrences: int = 0
    misspeculations: int = 0
    #: Zero-retire cycles attributed to this loop's recoveries.
    lost_cycles: int = 0

    @property
    def misspeculation_rate(self) -> float:
        """Mis-speculations per loop occurrence."""
        if self.occurrences == 0:
            return 0.0
        return self.misspeculations / self.occurrences


@dataclass
class AttributionReport:
    """The full per-loop breakdown of one run's cycles."""

    entries: List[AttributionEntry]
    total_cycles: int
    useful_cycles: int
    retired: int
    workload: str = ""
    config_label: str = ""

    def entry(self, name: str) -> AttributionEntry:
        """Look up one loop's row."""
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise KeyError(name)

    @property
    def lost_cycles(self) -> int:
        """All attributed stall cycles."""
        return sum(e.lost_cycles for e in self.entries)

    @property
    def reconciles(self) -> bool:
        """useful + sum(per-loop lost) == total — must always hold."""
        return self.useful_cycles + self.lost_cycles == self.total_cycles

    @property
    def ipc(self) -> float:
        """Realised IPC over the attributed window."""
        if self.total_cycles == 0:
            return 0.0
        return self.retired / self.total_cycles

    def lost_ipc(self, name: str) -> float:
        """IPC forgone to one loop: IPC with its stall cycles refunded,
        minus realised IPC (first-order — assumes the refunded cycles
        would have retired at the realised rate of the rest)."""
        entry = self.entry(name)
        remaining = self.total_cycles - entry.lost_cycles
        if remaining <= 0 or self.total_cycles == 0:
            return 0.0
        return self.retired / remaining - self.ipc

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready rendering (per-cell snapshot payload)."""
        return {
            "workload": self.workload,
            "config": self.config_label,
            "total_cycles": self.total_cycles,
            "useful_cycles": self.useful_cycles,
            "retired": self.retired,
            "ipc": self.ipc,
            "loops": [
                {
                    "name": e.name,
                    "loop_delay": e.loop_delay,
                    "occurrences": e.occurrences,
                    "misspeculations": e.misspeculations,
                    "misspeculation_rate": e.misspeculation_rate,
                    "lost_cycles": e.lost_cycles,
                    "lost_ipc": self.lost_ipc(e.name),
                }
                for e in self.entries
            ],
        }

    def render(self) -> str:
        """The report as a text table."""
        title = "Measured loop attribution"
        if self.workload:
            title += f" — {self.workload}"
        if self.config_label:
            title += f" [{self.config_label}]"
        headers = [
            "loop", "delay", "occurrences", "misspec", "rate",
            "lost cycles", "lost", "lost IPC",
        ]
        rows = []
        for e in sorted(
            self.entries, key=lambda x: x.lost_cycles, reverse=True
        ):
            frac = (
                e.lost_cycles / self.total_cycles if self.total_cycles else 0.0
            )
            rows.append(
                [
                    e.name,
                    e.loop_delay if e.name != OTHER else "-",
                    e.occurrences,
                    e.misspeculations,
                    f"{e.misspeculation_rate:.2%}",
                    e.lost_cycles,
                    f"{frac:.1%}",
                    f"{self.lost_ipc(e.name):+.3f}",
                ]
            )
        footer = (
            f"\nuseful {self.useful_cycles} + lost {self.lost_cycles} "
            f"= {self.useful_cycles + self.lost_cycles} of "
            f"{self.total_cycles} cycles "
            f"({'reconciles' if self.reconciles else 'DOES NOT RECONCILE'}); "
            f"ipc={self.ipc:.3f} over {self.retired} retired"
        )
        return (
            format_heading(title) + "\n"
            + format_table(headers, rows) + footer
        )


class LoopAttribution:
    """Bus subscriber reconstructing per-loop costs from the stream.

    Attach before the measured run::

        bus = EventBus()
        attribution = LoopAttribution(bus, config)
        result = simulate(workload, config, obs=bus)
        print(attribution.report(result.stats).render())
    """

    def __init__(self, bus: EventBus, config):
        delays = {
            loop.name: loop.loop_delay for loop in loops_for_config(config)
        }
        self._entries: Dict[str, AttributionEntry] = {}
        for name in (BRANCH_LOOP, LOAD_LOOP, OPERAND_LOOP, PORT_PRESSURE):
            self._entries[name] = AttributionEntry(
                name=name, loop_delay=delays.get(name, 0)
            )
        self._entries[OTHER] = AttributionEntry(name=OTHER, loop_delay=0)
        #: uid -> loop name of the replay currently in flight.
        self._pending: Dict[int, str] = {}
        self.total_cycles = 0
        self.useful_cycles = 0
        self._retired = 0
        self._retired_at_last_cycle = 0
        bus.subscribe(BranchOutcomeEvent, self._on_branch)
        bus.subscribe(LoadResolvedEvent, self._on_load)
        bus.subscribe(OperandEvent, self._on_operand)
        bus.subscribe(ReissueEvent, self._on_reissue)
        bus.subscribe(ExecuteEvent, self._on_execute)
        bus.subscribe(SquashEvent, self._on_squash)
        bus.subscribe(RetireEvent, self._on_retire)
        bus.subscribe(CycleEvent, self._on_cycle)

    # --- occurrence / mis-speculation counting ---------------------------

    def _on_branch(self, event: BranchOutcomeEvent) -> None:
        # calls and direct jumps cannot mispredict in this front end, so
        # they are not occurrences of the branch resolution loop
        if event.flavor in ("cond", "return"):
            entry = self._entries[BRANCH_LOOP]
            entry.occurrences += 1
            if event.mispredicted:
                entry.misspeculations += 1

    def _on_load(self, event: LoadResolvedEvent) -> None:
        entry = self._entries[LOAD_LOOP]
        entry.occurrences += 1
        if event.speculated and not event.hit:
            entry.misspeculations += 1

    def _on_operand(self, event: OperandEvent) -> None:
        if event.source == "regfile":
            return  # base machine: no operand resolution loop
        entry = self._entries[OPERAND_LOOP]
        entry.occurrences += 1
        if event.source == "miss":
            entry.misspeculations += 1

    # --- pending-replay tracking -----------------------------------------

    def _on_reissue(self, event: ReissueEvent) -> None:
        loop = _CAUSE_LOOP.get(event.cause, LOAD_LOOP)
        # an operand-miss replay on top of a load replay stays a load
        # replay: the earlier mis-speculation started the recovery
        self._pending.setdefault(event.uid, loop)

    def _on_execute(self, event: ExecuteEvent) -> None:
        if event.ok:
            self._pending.pop(event.uid, None)

    def _on_squash(self, event: SquashEvent) -> None:
        self._pending.pop(event.uid, None)

    def _on_retire(self, event: RetireEvent) -> None:
        self._retired += 1

    # --- per-cycle classification ----------------------------------------

    def _on_cycle(self, event: CycleEvent) -> None:
        self.total_cycles += 1
        retired_this_cycle = self._retired - self._retired_at_last_cycle
        self._retired_at_last_cycle = self._retired
        if event.port_stalls > 0:
            # lost issue slots are occurrences of the port bottleneck
            # whether or not the cycle still retired something
            self._entries[PORT_PRESSURE].occurrences += event.port_stalls
        if retired_this_cycle > 0:
            self.useful_cycles += 1
            return
        if self._pending:
            pending = self._pending.values()
            bucket = LOAD_LOOP if LOAD_LOOP in pending else OPERAND_LOOP
        elif event.port_stalls > 0:
            bucket = PORT_PRESSURE
        elif event.branch_stall:
            bucket = BRANCH_LOOP
        else:
            bucket = OTHER
        self._entries[bucket].lost_cycles += 1

    # --- reporting --------------------------------------------------------

    def report(
        self,
        stats=None,
        workload: str = "",
        config_label: str = "",
    ) -> AttributionReport:
        """Build the report; ``stats`` (CoreStats) supplies the retired
        count cross-check but is optional."""
        retired = self._retired
        if stats is not None and stats.retired > retired:
            # events attached mid-run: fall back to the machine's count
            retired = stats.retired
        return AttributionReport(
            entries=[
                AttributionEntry(
                    name=e.name,
                    loop_delay=e.loop_delay,
                    occurrences=e.occurrences,
                    misspeculations=e.misspeculations,
                    lost_cycles=e.lost_cycles,
                )
                for e in self._entries.values()
            ],
            total_cycles=self.total_cycles,
            useful_cycles=self.useful_cycles,
            retired=retired,
            workload=workload,
            config_label=config_label,
        )
