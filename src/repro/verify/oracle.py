"""The golden retire model: an in-order reference scoreboard.

Every workload engine is deterministic — ``clone()`` restarts the same
stream from position 0 and ``fast_forward(n)`` advances it exactly
``n`` ops (the :class:`~repro.scenarios.base.WorkloadEngine` contract)
— so a trivially-correct in-order model can replay the *same* program
the out-of-order core is running and check, instruction by instruction
at retirement:

* **stream equality** — the retired micro-op is exactly the next op of
  the reference stream (squashes and replays must be invisible);
* **program order** — per-thread retired uids strictly increase and
  retire cycles never decrease;
* **machine-state sanity** — a retired instruction executed, was
  confirmed, and was never squashed;
* **last-writer versioning** — the retiring instruction's
  ``prev_dst_preg`` equals the oracle's committed mapping of its
  architectural destination, which then advances to ``dst_preg`` (the
  commit-time half of rename correctness; the speculative half is
  covered by :class:`repro.verify.invariants.RenameChecker`);
* **ground-truth resolution** — branches carry a prediction and their
  ``mispredicted`` flag matches the generator's ground-truth direction;
  memory operations resolved an address and a cache outcome.

The oracle attaches *after* functional warmup (where the generators have
already been consumed ``emitted`` ops deep) and chains the simulator's
``retire_hook``, so it sees every retirement of detailed simulation
without touching timing.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.isa import OpClass
from repro.verify.invariants import Violation


class GoldenRetireModel:
    """In-order reference model checked against each retirement."""

    name = "oracle"

    #: Full records kept; further violations only count.
    MAX_RECORDED = 25

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        self.violation_count = 0
        self.retired_checked = 0
        self._reference: Dict[int, Any] = {}
        self._committed: Dict[int, List[int]] = {}
        self._last_uid: Dict[int, int] = {}
        self._last_retire_cycle: Dict[int, int] = {}

    def _record(self, cycle: int, message: str, uid: int) -> None:
        self.violation_count += 1
        if len(self.violations) < self.MAX_RECORDED:
            self.violations.append(
                Violation(
                    checker=self.name, cycle=cycle, message=message, uid=uid
                )
            )

    def attach(self, simulator) -> None:
        """Snapshot committed state and start checking retirements.

        Must be called while nothing is in flight (between functional
        warmup and ``run()``); the reference generators fast-forward to
        each thread generator's current position.  The fast generator
        inherits ``clone()``, so its reference is the readable
        :class:`~repro.workloads.SyntheticTraceGenerator`: the check
        does not trust the generator of the kernel it checks.
        """
        for thread in simulator.threads:
            generator = thread.generator
            reference = generator.clone()
            reference.fast_forward(generator.emitted)
            self._reference[thread.tid] = reference
            self._committed[thread.tid] = list(thread.rename_map.map)
            self._last_uid[thread.tid] = -1
            self._last_retire_cycle[thread.tid] = -1
        previous_hook = simulator.retire_hook

        def hook(inst) -> None:
            self.on_retire(inst)
            if previous_hook is not None:
                previous_hook(inst)

        simulator.retire_hook = hook

    def on_retire(self, inst) -> None:
        """Check one retiring :class:`~repro.isa.DynInst`."""
        self.retired_checked += 1
        tid = inst.thread
        cycle = inst.retire_cycle
        expected = self._reference[tid].next_op()

        if inst.op != expected:
            self._record(
                cycle,
                f"retired op diverges from the reference stream: got "
                f"{inst.op}, expected {expected}",
                uid=inst.uid,
            )
        if inst.uid <= self._last_uid[tid]:
            self._record(
                cycle,
                f"retire order violated: uid {inst.uid} after "
                f"{self._last_uid[tid]}",
                uid=inst.uid,
            )
        self._last_uid[tid] = max(self._last_uid[tid], inst.uid)
        if cycle < self._last_retire_cycle[tid]:
            self._record(
                cycle,
                f"retire cycle {cycle} precedes previous retirement at "
                f"{self._last_retire_cycle[tid]}",
                uid=inst.uid,
            )
        self._last_retire_cycle[tid] = max(
            self._last_retire_cycle[tid], cycle
        )
        if not inst.executed or not inst.confirmed or inst.squashed:
            self._record(
                cycle,
                f"retired in an illegal state (executed={inst.executed}, "
                f"confirmed={inst.confirmed}, squashed={inst.squashed})",
                uid=inst.uid,
            )

        committed = self._committed[tid]
        if inst.op.dst is not None:
            if inst.dst_preg is None:
                self._record(
                    cycle, "retired writer was never renamed", uid=inst.uid
                )
            else:
                if inst.prev_dst_preg != committed[inst.op.dst]:
                    self._record(
                        cycle,
                        f"last-writer chain broken for arch "
                        f"r{inst.op.dst}: prev_dst_preg "
                        f"{inst.prev_dst_preg} != committed "
                        f"{committed[inst.op.dst]}",
                        uid=inst.uid,
                    )
                committed[inst.op.dst] = inst.dst_preg

        if inst.op.opclass is OpClass.BRANCH:
            if inst.predicted_taken is None:
                self._record(
                    cycle, "branch retired without a prediction",
                    uid=inst.uid,
                )
            elif inst.mispredicted != (inst.predicted_taken != expected.taken):
                self._record(
                    cycle,
                    f"mispredict flag disagrees with ground truth "
                    f"(predicted={inst.predicted_taken}, "
                    f"taken={expected.taken}, "
                    f"mispredicted={inst.mispredicted})",
                    uid=inst.uid,
                )
        if inst.op.opclass.is_memory and inst.dcache_hit is None:
            self._record(
                cycle,
                "memory op retired without resolving its cache access",
                uid=inst.uid,
            )
