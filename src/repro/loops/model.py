"""First-class model of micro-architectural loops.

Implements the definitional framework of the paper's §1:

* **loop length** — pipeline stages traversed from initiation to
  resolution stage;
* **feedback delay** — cycles to communicate the result back from the
  resolution stage to the initiation stage;
* **loop delay** — loop length + feedback delay; a loop with delay 1 is
  *tight*, anything else is *loose*;
* **recovery time** — extra refill cycles when the recovery stage sits
  earlier in the pipe than the initiation stage;
* minimum mis-speculation impact — loop delay + recovery time (the §1
  lower bound; queueing delays add to it).

``loops_for_config`` instantiates the paper's loop inventory (Figure 2)
for a given core configuration so experiments and examples can print
and test the framework numbers, e.g. the 21264 branch loop's 7-cycle
minimum impact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import CoreConfig


class LoopKind(enum.Enum):
    """Hazard classes that give rise to loops (§1)."""

    CONTROL = "control"
    DATA = "data"
    RESOURCE = "resource"


@dataclass(frozen=True)
class Loop:
    """One micro-architectural loop.

    Stage names are descriptive labels; the arithmetic uses only the
    cycle counts.
    """

    name: str
    kind: LoopKind
    initiation_stage: str
    resolution_stage: str
    length: int
    feedback_delay: int
    #: Extra cycles to refill from the recovery stage to the initiation
    #: stage (0 when they coincide).
    recovery_time: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"{self.name}: loop length cannot be negative")
        if self.feedback_delay < 0:
            raise ValueError(f"{self.name}: feedback delay cannot be negative")
        if self.recovery_time < 0:
            raise ValueError(f"{self.name}: recovery time cannot be negative")

    @property
    def loop_delay(self) -> int:
        """Loop length plus feedback delay (§1)."""
        return self.length + self.feedback_delay

    @property
    def is_tight(self) -> bool:
        """Tight loops have a loop delay of one."""
        return self.loop_delay == 1

    @property
    def is_loose(self) -> bool:
        """Loose loops extend over multiple stages (delay > 1)."""
        return not self.is_tight

    @property
    def min_misspeculation_impact(self) -> int:
        """Lower bound of cycles lost per mis-speculation (§1).

        Queueing delays inside the loop add to this in practice.
        """
        return self.loop_delay + self.recovery_time


def loops_for_config(config: "CoreConfig") -> List[Loop]:
    """The loop inventory of a simulated core (paper Figures 1-2).

    Includes the two loose loops the paper studies in depth (branch
    resolution and load resolution), the loops the base design already
    closes (forwarding), and — when the DRA is enabled — the new operand
    resolution loop.
    """
    loops = [
        Loop(
            name="next_line_prediction",
            kind=LoopKind.CONTROL,
            initiation_stage="fetch",
            resolution_stage="fetch",
            length=0,
            feedback_delay=1,
        ),
        Loop(
            name="alu_forwarding",
            kind=LoopKind.DATA,
            initiation_stage="execute",
            resolution_stage="execute",
            length=0,
            feedback_delay=1,
        ),
        Loop(
            name="branch_resolution",
            kind=LoopKind.CONTROL,
            initiation_stage="fetch",
            resolution_stage="execute",
            length=config.fetch_depth + config.dec_iq + config.iq_ex,
            feedback_delay=config.branch_feedback_delay,
        ),
        Loop(
            name="load_resolution",
            kind=LoopKind.DATA,
            initiation_stage="issue",
            resolution_stage="dcache",
            length=config.iq_ex,
            feedback_delay=config.iq_feedback_delay,
        ),
        Loop(
            name="memory_barrier",
            kind=LoopKind.RESOURCE,
            initiation_stage="rename",
            resolution_stage="retire",
            # the barrier waits at the mapper until all preceding
            # instructions complete: the loop spans rename to completion
            length=(config.dec_iq - config.rename_offset) + config.iq_ex + 1,
            feedback_delay=config.iq_feedback_delay,
        ),
        Loop(
            name="dtlb_trap",
            kind=LoopKind.DATA,
            initiation_stage="issue",
            resolution_stage="dcache",
            length=config.iq_ex,
            feedback_delay=config.iq_feedback_delay,
            # trap recovery restarts at fetch: refill the whole front
            recovery_time=config.fetch_depth + config.dec_iq,
        ),
    ]
    if config.memdep is not None:
        loops.append(
            Loop(
                name="memory_dependence",
                kind=LoopKind.DATA,
                initiation_stage="issue",
                resolution_stage="execute",
                length=config.iq_ex,
                feedback_delay=config.iq_feedback_delay,
                # the reorder trap recovers at fetch, not at issue: the
                # §1 example of recovery stage != initiation stage
                recovery_time=config.fetch_depth + config.dec_iq,
            )
        )
    if config.dra is not None:
        loops.append(
            Loop(
                name="operand_resolution",
                kind=LoopKind.DATA,
                initiation_stage="issue",
                resolution_stage="execute",
                length=config.iq_ex,
                feedback_delay=config.iq_feedback_delay,
            )
        )
    return loops


def alpha_21264_loops() -> List[Loop]:
    """The Alpha 21264 loops the paper uses as worked examples (§1).

    The branch resolution loop encompasses 6 stages with a feedback
    delay of 1 and no recovery time, so its minimum mis-speculation
    impact is 7 cycles — the number quoted in the paper.
    """
    return [
        Loop(
            name="21264_next_line_prediction",
            kind=LoopKind.CONTROL,
            initiation_stage="fetch",
            resolution_stage="fetch",
            length=0,
            feedback_delay=1,
        ),
        Loop(
            name="21264_alu_forwarding",
            kind=LoopKind.DATA,
            initiation_stage="execute",
            resolution_stage="execute",
            length=0,
            feedback_delay=1,
        ),
        Loop(
            name="21264_branch_resolution",
            kind=LoopKind.CONTROL,
            initiation_stage="fetch",
            resolution_stage="execute",
            length=6,
            feedback_delay=1,
        ),
        Loop(
            name="21264_load_resolution",
            kind=LoopKind.DATA,
            initiation_stage="issue",
            resolution_stage="dcache",
            length=2,
            feedback_delay=1,
        ),
        Loop(
            name="21264_load_store_reorder_trap",
            kind=LoopKind.DATA,
            initiation_stage="issue",
            resolution_stage="execute",
            length=2,
            feedback_delay=1,
            recovery_time=4,  # recovery stage is fetch, not issue
        ),
    ]
