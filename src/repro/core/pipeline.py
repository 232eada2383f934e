"""The cycle-level out-of-order SMT pipeline.

Structure (paper Figure 3)::

    fetch pipe (F) | DEC->IQ pipe (X) | IQ wait | IQ->EX pipe (Y) | EX | feedback

Each simulated cycle processes, in reverse pipeline order: scheduled
events (writebacks, confirmations, load-resolution notifications),
retire, execute, issue, IQ insertion, rename, fetch.  Timing state flows
through per-physical-register availability times (see
:mod:`repro.core.regfile`), so mis-speculation on the load resolution
loop and on the DRA's operand resolution loop is detected exactly where
hardware detects it: at execute, when an operand turns out not to be
there.

Key modelled behaviours
-----------------------
* Loads speculate L1 hits; the IQ learns the truth one loop delay later
  (IQ->EX + feedback) and issued dependents that consumed an invalid
  value reissue from the IQ (``LoadRecovery.REISSUE``), are re-fetched
  (``REFETCH``), or never speculated at all (``STALL``).
* Issued instructions hold their IQ entries until confirmation — the
  §2.2.2 IQ-pressure effect.
* Branch mis-speculations stall the thread's fetch until the branch
  executes, paying decode-to-execute latency plus real queueing delay.
* With a :class:`~repro.core.config.DRAConfig`, operands are located at
  execute through pre-read payload / forwarding buffer / CRC, and a miss
  triggers the operand resolution loop.

Simplifications (documented in DESIGN.md §§8-9): trace-driven fetch with
stall-on-mispredict rather than wrong-path execution; DTLB misses charge
the walk latency plus a front-end refill stall instead of a full
replay-trap flush; store-to-load forwarding is timing-only.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.branch import BTB, ReturnAddressStack
from repro.branch.line_predictor import LinePredictor
from repro.branch.predictors import make_predictor
from repro.core.config import CoreConfig, LoadRecovery
from repro.core.dra import DRAEngine
from repro.core.forwarding import ForwardingBuffer
from repro.core.iq import IssueQueue
from repro.core.memdep import MemDepPolicy, StoreQueue, StoreWaitPredictor
from repro.core.regfile import PhysRegFile, RenameMap
from repro.errors import ConfigError, HangSnapshot, SimulationHangError
from repro.core.stats import (
    CoreStats,
    OperandSource,
    ReissueCause,
    ThreadStats,
)
from repro.isa import DynInst, MicroOp, OpClass
from repro.memory import MemoryHierarchy
from repro.obs.events import (
    BranchOutcomeEvent,
    CompleteEvent,
    ConfirmEvent,
    CycleEvent,
    DropEvent,
    ExecuteEvent,
    FetchEvent,
    LoadResolvedEvent,
    OperandEvent,
    PhaseEvent,
    ReissueEvent,
    RenameEvent,
    RetireEvent,
    SquashEvent,
    WritebackEvent,
)
from repro.smt import choose_fetch_thread
from repro.workloads import SyntheticTraceGenerator, WorkloadProfile

#: Maximum instructions buffered in one thread's front-end pipes before
#: fetch throttles (models finite fetch/decode buffering).
_FRONTEND_LIMIT = 64

#: Cycles without a retire before the simulator declares a deadlock.
_DEADLOCK_WINDOW = 50_000

#: What functional warmup trains (:meth:`Simulator._functional_stream`)
#: and a warm snapshot therefore carries.  Each shared structure is
#: built from the ``CoreConfig`` field of the same name, so these are
#: also the only config fields a warm key folds in.
WARMED_STRUCTURES = ("hierarchy", "predictor", "btb", "line_predictor")
#: The per-hardware-thread part of the warmed state: stream position,
#: return stack and next-line history (the replay queue is empty after
#: warmup but belongs to the stream).
WARMED_THREAD_STATE = ("generator", "ras", "last_taken_pc", "replay")


def _pickle_by_attribute(state) -> bytes:
    """Pickle ``state`` so that the simulator's own plain objects are
    rebuilt attribute by attribute.

    Plain pickling restores an instance by writing into its
    ``__dict__``, which leaves CPython 3.11+ with a materialised dict
    and slower attribute access for the rest of the object's life (on
    CPython 3.11, detailed simulation after such a restore ran about
    13 % slower: int_test, reference kernel).  Setting each attribute
    keeps the compact layout that ``__init__`` gives a fresh object.
    """
    import copyreg
    import io
    import pickle

    class _Pickler(pickle.Pickler):
        def reducer_override(self, obj):
            cls = type(obj)
            if (
                cls.__module__.split(".")[0] != "repro"
                or not hasattr(obj, "__dict__")
                or cls.__setattr__ is not object.__setattr__
                or cls.__reduce_ex__ is not object.__reduce_ex__
            ):
                return NotImplemented
            # (None, attributes): the unpickler setattr()s each one
            return copyreg.__newobj__, (cls,), (None, obj.__dict__)

    buffer = io.BytesIO()
    _Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(state)
    return buffer.getvalue()


class _ThreadState:
    """All per-hardware-thread pipeline state."""

    def __init__(
        self,
        tid: int,
        generator,  # any repro.scenarios WorkloadEngine
        rename_map: RenameMap,
        stats: ThreadStats,
    ):
        self.tid = tid
        self.generator = generator
        self._ops: Iterator[MicroOp] = generator.stream()
        self.replay: Deque[MicroOp] = deque()
        self.rename_map = rename_map
        self.stats = stats
        self.ras = ReturnAddressStack()
        self.rob: Deque[DynInst] = deque()
        #: (rename-ready cycle, inst) — fetch pipe + first DEC stages
        self.fetch_pipe: Deque[Tuple[int, DynInst]] = deque()
        #: (IQ-insert-ready cycle, inst) — post-rename DEC->IQ stages
        self.insert_pipe: Deque[Tuple[int, DynInst]] = deque()
        self.fetch_blocked_until = 0
        self.waiting_branch: Optional[DynInst] = None
        self.iq_count = 0
        self.store_queue: Optional[StoreQueue] = None
        #: PC of the taken control op that ended the previous fetch
        #: group (next-line prediction is only at risk across taken
        #: transitions; sequential next-line is trivially right)
        self.last_taken_pc: Optional[int] = None

    def next_op(self) -> MicroOp:
        """Next micro-op: replayed (after a flush) or freshly generated."""
        if self.replay:
            return self.replay.popleft()
        return next(self._ops)

    @property
    def frontend_count(self) -> int:
        """Instructions between fetch and IQ insertion."""
        return len(self.fetch_pipe) + len(self.insert_pipe)

    @property
    def icount(self) -> int:
        """The ICOUNT fetch-policy metric: front-end + IQ population."""
        return self.frontend_count + self.iq_count


class Simulator:
    """A configured core running one or more synthetic workloads."""

    #: Builds each plain profile's uop stream; scenario entries (anything
    #: with ``build_engine``) build their own engine instead.
    generator_class = SyntheticTraceGenerator

    def __init__(
        self,
        config: CoreConfig,
        profiles: List[WorkloadProfile],
        seed: int = 0,
    ):
        if not profiles:
            raise ValueError("at least one workload profile is required")
        self.config = config
        self.seed = seed
        #: the resolved per-thread workload entries (warm-key material)
        self._entries = list(profiles)
        self.stats = CoreStats(threads=[ThreadStats() for _ in profiles])
        self.regfile = PhysRegFile(config.num_pregs)
        self.hierarchy = MemoryHierarchy(config.hierarchy)
        self.predictor = make_predictor(config.predictor)
        self.btb = BTB(config.btb)
        self.line_predictor: Optional[LinePredictor] = None
        if config.line_predictor is not None:
            self.line_predictor = LinePredictor(config.line_predictor)
        self.fb = ForwardingBuffer(self.regfile, config.fb_depth)
        self.iq = IssueQueue(config, self.regfile)
        self.dra: Optional[DRAEngine] = None
        if config.dra is not None:
            self.dra = DRAEngine(
                config.dra, config.num_pregs, config.num_clusters, self.stats
            )
        self.store_wait: Optional[StoreWaitPredictor] = None
        if config.memdep is not None:
            self.store_wait = StoreWaitPredictor(
                config.memdep.predictor_entries, config.memdep.clear_interval
            )
            self.iq.set_memdep_gate(self._memdep_blocked)
        self.cycle = 0
        self._inflight = 0
        self._cluster_rr = 0
        self._last_fetch_tid = -1
        self._frontend_stall_until = 0
        self._producer: List[Optional[DynInst]] = [None] * config.num_pregs
        self._exec_pipe: Dict[int, List[DynInst]] = {}
        self._events: Dict[int, List[tuple]] = {}
        #: optional callable(inst) invoked as each instruction retires
        #: (used by the pipetrace tooling; None in normal runs)
        self.retire_hook = None
        #: optional EventBus (repro.obs); every probe site guards with a
        #: single ``is None`` test, so detached runs pay nothing
        self.obs = None
        #: populated by the sampled kernel backend with its error model
        self.sampling_report = None
        self.threads: List[_ThreadState] = []
        for tid, profile in enumerate(profiles):
            # duck-typed engine dispatch: scenario entries (trace replay,
            # dynamic schedules) carry build_engine; plain profiles keep
            # the historical generator path bit-for-bit
            if hasattr(profile, "build_engine"):
                generator = profile.build_engine(
                    seed=seed,
                    thread=tid,
                    page_bytes=config.hierarchy.tlb.page_bytes,
                )
            else:
                generator = self.generator_class(
                    profile,
                    seed=seed,
                    thread=tid,
                    page_bytes=config.hierarchy.tlb.page_bytes,
                )
            rename_map = RenameMap(self.regfile, start_cycle=0)
            if self.dra is not None:
                # initial architectural state is committed in the register
                # file, hence pre-readable (RPFT bits set)
                for preg in rename_map.map:
                    self.dra.rpft.on_writeback(preg)
            thread = _ThreadState(
                tid, generator, rename_map, self.stats.threads[tid]
            )
            if config.memdep is not None:
                thread.store_queue = StoreQueue(config.memdep.store_queue_entries)
            self.threads.append(thread)

    # ------------------------------------------------------------- observability

    def attach_obs(self, bus) -> None:
        """Attach an :class:`~repro.obs.bus.EventBus` to every probe point.

        Wires the pipeline's own probes plus the issue queue, the DRA
        structures, and (via :class:`~repro.branch.predictors.ProbedPredictor`)
        the direction predictor.  Pass ``None`` to detach everything and
        return the machine to its zero-overhead state.
        """
        from repro.branch.predictors import ProbedPredictor

        self.obs = bus
        self.iq.bus = bus
        if self.dra is not None:
            self.dra.bus = bus
            self.dra.clock = (lambda: self.cycle) if bus is not None else None
        if bus is not None:
            if not isinstance(self.predictor, ProbedPredictor):
                self.predictor = ProbedPredictor(self.predictor)
            self.predictor.bus = bus
            self.predictor.clock = lambda: self.cycle
        elif isinstance(self.predictor, ProbedPredictor):
            self.predictor = self.predictor.inner
        for thread in self.threads:
            generator = thread.generator
            if not hasattr(generator, "phase_hook"):
                continue
            if bus is None:
                generator.phase_hook = None
                continue

            def _emit_phase(
                ordinal: int, index: int, name: str, _tid: int = thread.tid
            ) -> None:
                self.obs.emit(PhaseEvent(
                    cycle=self.cycle, thread=_tid, name=name, index=ordinal
                ))

            generator.phase_hook = _emit_phase
            # anchor attribution: announce the phase in effect right now
            generator.announce()

    # ------------------------------------------------------------------ events

    def _schedule(self, cycle: int, event: tuple) -> None:
        self._events.setdefault(cycle, []).append(event)

    def _run_events(self, cycle: int) -> None:
        for event in self._events.pop(cycle, ()):
            kind = event[0]
            if kind == "confirm":
                self._ev_confirm(event[1], event[2])
            elif kind == "reissue":
                self._ev_reissue(event[1], event[2])
            elif kind == "spec":
                self._ev_spec(event[1], event[2], event[3])
            elif kind == "wb":
                self._ev_writeback(event[1], event[2], cycle)
            elif kind == "flush":
                self._ev_flush(event[1], event[2], cycle)
            elif kind == "memtrap":
                self._ev_memtrap(event[1], event[2], cycle)
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown event kind {kind!r}")

    def _ev_confirm(self, inst: DynInst, epoch: int) -> None:
        """Execution stage confirmed the instruction: release its entry."""
        if inst.squashed or inst.issue_count != epoch or not inst.executed:
            return
        inst.confirmed = True
        inst.in_iq = False
        self.iq.release(inst)
        self.threads[inst.thread].iq_count -= 1
        if self.obs is not None:
            self.obs.emit(ConfirmEvent(
                cycle=self.cycle, uid=inst.uid, thread=inst.thread
            ))

    def _ev_reissue(self, inst: DynInst, epoch: int) -> None:
        """IQ notified of a mis-speculated execution: ready the reissue."""
        if inst.squashed or inst.issue_count != epoch or inst.executed:
            return
        self.iq.mark_reissue(inst)
        dst = inst.dst_preg
        if dst is not None and self.regfile.avail[dst] is None:
            # retract the optimistic publication so consumers re-gate on
            # the (future) reissue
            self.regfile.spec_avail[dst] = None

    def _ev_spec(self, producer: DynInst, preg: int, value: Optional[int]) -> None:
        """Load resolution feedback: retract or publish a wakeup time.

        ``None`` retracts a mis-speculated publication (the IQ learned
        the load missed); a value re-publishes it once the resolution is
        known, which is the earliest dependents may be selected.
        """
        if producer.squashed:
            return
        self.regfile.spec_avail[preg] = value

    def _ev_writeback(self, producer: DynInst, preg: int, cycle: int) -> None:
        """Value leaves the forwarding buffer for the register file."""
        if producer.squashed:
            return
        self.regfile.writeback[preg] = cycle
        if self.obs is not None:
            self.obs.emit(WritebackEvent(cycle=cycle, preg=preg))
        if self.dra is not None:
            self.dra.on_writeback(preg)

    def _ev_flush(self, thread: _ThreadState, boundary: DynInst, cycle: int) -> None:
        """REFETCH recovery: squash and re-fetch everything after a load."""
        if boundary.squashed:
            return
        self.stats.load_refetch_flushes += 1
        self._flush_younger(thread, boundary, cycle)

    def _memdep_blocked(self, inst: DynInst) -> bool:
        """Whether a store-wait load must keep holding.

        Store-wait prediction uses the 21264 semantics — hold only until
        every older store has *issued* (cheap, restores ordering in the
        common case).  The conservative policy enforces full ordering:
        hold until every older store has executed, which can never trap.
        """
        store_queue = self.threads[inst.thread].store_queue
        if store_queue is None:
            return False
        if self.config.memdep.policy is MemDepPolicy.CONSERVATIVE:
            return store_queue.has_older_unexecuted(inst.uid)
        return store_queue.has_older_unissued(inst.uid)

    def _ev_memtrap(self, store: DynInst, boundary_uid: int, cycle: int) -> None:
        """Load/store reorder trap: squash from the offending load and
        re-fetch — the §1 example of a loop whose recovery stage (fetch)
        is earlier than its initiation stage (issue)."""
        if store.squashed:
            return
        thread = self.threads[store.thread]
        self.stats.memdep_traps += 1
        self._flush_from(thread, boundary_uid, cycle, reason="memdep_trap")

    # ------------------------------------------------------------------- tick

    def tick(self) -> None:
        """Advance the machine by one cycle."""
        cycle = self.cycle
        self._run_events(cycle)
        self._retire(cycle)
        self._execute(cycle)
        ports_before = self.iq.port_stalls
        self._issue(cycle)
        self._insert(cycle)
        self._rename(cycle)
        self._fetch(cycle)
        if self.store_wait is not None:
            self.store_wait.tick(cycle)
        self.stats.cycles += 1
        self.stats.iq_occupancy_sum += self.iq.count
        self.stats.iq_issued_waiting_sum += self.iq.issued_waiting
        if self.obs is not None:
            self.obs.emit(CycleEvent(
                cycle=cycle,
                branch_stall=any(
                    t.waiting_branch is not None for t in self.threads
                ),
                iq_full=not self.iq.has_space(),
                rob_full=self._inflight >= self.config.rob_entries,
                port_stalls=self.iq.port_stalls - ports_before,
            ))
        self.cycle += 1

    # ------------------------------------------------------------------ retire

    def _retire(self, cycle: int) -> None:
        budget = self.config.retire_width
        for thread in self.threads:
            while budget > 0 and thread.rob:
                inst = thread.rob[0]
                if not (inst.executed and inst.confirmed):
                    break
                dst = inst.dst_preg
                if dst is not None:
                    avail = self.regfile.avail[dst]
                    if avail is None or avail > cycle:
                        break  # e.g. a load still waiting on memory
                thread.rob.popleft()
                self._inflight -= 1
                if thread.store_queue is not None and \
                        inst.op.opclass is OpClass.STORE:
                    thread.store_queue.remove(inst)
                inst.retire_cycle = cycle
                if inst.prev_dst_preg is not None:
                    self._producer[inst.prev_dst_preg] = None
                    self.regfile.free(inst.prev_dst_preg)
                thread.stats.retired += 1
                budget -= 1
                if self.obs is not None:
                    self.obs.emit(RetireEvent(
                        cycle=cycle, uid=inst.uid, thread=inst.thread
                    ))
                if self.retire_hook is not None:
                    self.retire_hook(inst)

    # ----------------------------------------------------------------- execute

    def _execute(self, cycle: int) -> None:
        for inst in self._exec_pipe.pop(cycle, ()):
            if inst.squashed or inst.executed:
                continue
            inst.exec_start_cycle = cycle
            fault = self._operand_fault(inst, cycle)
            if fault is None and self.dra is not None \
                    and not self._locate_operands(inst, cycle):
                fault = ReissueCause.OPERAND_MISS
                self.stats.reissues[ReissueCause.OPERAND_MISS] += 1
                self._frontend_stall_until = max(
                    self._frontend_stall_until,
                    cycle + self.config.dra.frontend_stall,
                )
            if fault is not None:
                if fault is not ReissueCause.OPERAND_MISS \
                        and self.dra is not None \
                        and self.dra.config.shadow_fb_decrement:
                    self._shadow_fb_reads(inst, cycle)
                if self.obs is not None:
                    self.obs.emit(ExecuteEvent(
                        cycle=cycle, uid=inst.uid, thread=inst.thread,
                        epoch=inst.issue_count, ok=False,
                    ))
                    self.obs.emit(ReissueEvent(
                        cycle=cycle, uid=inst.uid, thread=inst.thread,
                        cause=fault.value,
                    ))
                self._schedule(
                    cycle + self.config.iq_feedback_delay,
                    ("reissue", inst, inst.issue_count),
                )
                continue
            if self.obs is not None:
                self.obs.emit(ExecuteEvent(
                    cycle=cycle, uid=inst.uid, thread=inst.thread,
                    epoch=inst.issue_count, ok=True,
                ))
            self._complete(inst, cycle)

    def _operand_fault(
        self, inst: DynInst, cycle: int
    ) -> Optional[ReissueCause]:
        """Ground-truth check: was every source value actually computed?

        Returns the reissue cause on failure — a mis-speculation of the
        load resolution loop (directly, or transitively through an
        invalidated producer) — or ``None`` when all operands are valid.
        """
        avail = self.regfile.avail
        for preg in inst.src_pregs:
            value_time = avail[preg]
            if value_time is None or value_time > cycle:
                producer = self._producer[preg]
                if producer is not None and producer.is_load and producer.executed:
                    cause = ReissueCause.LOAD_MISS
                else:
                    cause = ReissueCause.DEPENDENT_INVALID
                self.stats.reissues[cause] += 1
                return cause
        if self.dra is None:
            for preg in inst.src_pregs:
                self.stats.operand_reads[OperandSource.REGFILE] += 1
                if self.obs is not None:
                    self.obs.emit(OperandEvent(
                        cycle=cycle, uid=inst.uid, thread=inst.thread,
                        preg=preg, source=OperandSource.REGFILE.value,
                    ))
        return None

    def _shadow_fb_reads(self, inst: DynInst, cycle: int) -> None:
        """Forwarding-buffer reads performed by a killed (shadow) issue.

        A replayed instruction still drove the forwarding network for
        its valid operands; those reads decrement the insertion-table
        consumer counts exactly like a successful read would (§5.4).
        """
        assert self.dra is not None
        avail = self.regfile.avail
        for idx, preg in enumerate(inst.src_pregs):
            if inst.preread[idx] or inst.payload_valid[idx]:
                continue
            value_time = avail[preg]
            if value_time is None or value_time > cycle:
                continue
            if self.fb.holds(preg, cycle):
                self.dra.on_forward_read(preg, inst.cluster)

    def _locate_operands(self, inst: DynInst, cycle: int) -> bool:
        """DRA operand location (§5): payload, forwarding buffer, CRC.

        Returns False on an operand miss, after arranging the recovery
        (register-file read into the IQ payload).
        """
        assert self.dra is not None
        dra = self.dra
        ok = True
        for idx, preg in enumerate(inst.src_pregs):
            if inst.preread[idx]:
                self._count_operand(inst, idx, OperandSource.PREREAD, cycle)
                continue
            if inst.payload_valid[idx]:
                # recovered into the payload after an earlier miss;
                # already classified as MISS
                continue
            if self.fb.holds(preg, cycle):
                dra.on_forward_read(preg, inst.cluster)
                self._count_operand(inst, idx, OperandSource.FORWARD, cycle)
                continue
            if dra.crc_lookup(preg, inst.cluster):
                self._count_operand(inst, idx, OperandSource.CRC, cycle)
                continue
            # operand miss: fetch from the register file into the payload
            ok = False
            self._count_operand(inst, idx, OperandSource.MISS, cycle, force=True)
            self.stats.operand_miss_events += 1
            inst.payload_valid[idx] = True
            inst.min_reissue_cycle = max(
                inst.min_reissue_cycle,
                cycle + self.config.rf_read_latency + dra.config.payload_transit,
            )
        return ok

    def _count_operand(
        self,
        inst: DynInst,
        idx: int,
        source: OperandSource,
        cycle: int,
        force: bool = False,
    ) -> None:
        """Classify an operand read once per operand (Figure 9)."""
        if inst.operand_counted[idx] and not force:
            return
        if not inst.operand_counted[idx]:
            self.stats.operand_reads[source] += 1
            if self.obs is not None:
                self.obs.emit(OperandEvent(
                    cycle=cycle, uid=inst.uid, thread=inst.thread,
                    preg=inst.src_pregs[idx], source=source.value,
                ))
        inst.operand_counted[idx] = True

    def _complete(self, inst: DynInst, cycle: int) -> None:
        """All operands present and valid: perform the execution."""
        inst.executed = True
        config = self.config
        latency = inst.op.exec_latency
        opclass = inst.op.opclass

        if opclass.is_memory:
            latency += self._access_memory(inst, cycle)
        dst = inst.dst_preg
        avail_time = cycle + latency
        inst.complete_cycle = avail_time
        if self.obs is not None:
            self.obs.emit(CompleteEvent(
                cycle=cycle, uid=inst.uid, thread=inst.thread,
                avail_cycle=avail_time,
            ))
            if inst.is_load:
                self.obs.emit(LoadResolvedEvent(
                    cycle=cycle, uid=inst.uid, thread=inst.thread,
                    hit=self._load_as_predicted(inst),
                    speculated=(
                        config.load_recovery not in (
                            LoadRecovery.STALL, LoadRecovery.SSR
                        )
                        and dst is not None
                    ),
                    latency=latency,
                ))
        if dst is not None:
            self.regfile.avail[dst] = avail_time
            self._schedule(
                avail_time + config.fb_depth, ("wb", inst, dst)
            )
        # figure 6 instrumentation: operand availability gap
        if len(inst.src_pregs) == 2:
            first = self.regfile.avail[inst.src_pregs[0]]
            second = self.regfile.avail[inst.src_pregs[1]]
            self.stats.operand_gap_samples.append(abs(first - second))
        else:
            self.stats.operand_gap_samples.append(0)

        # load resolution feedback.  Dependents of a mis-speculated (or
        # non-speculated) load may only be selected once the resolution
        # signal reaches the IQ: the re-publication below happens at the
        # fill (minus an optional wake lead), so a reissued dependent
        # reaches execute a full IQ->EX after the data — the §2.2.2
        # mechanism that makes the load loop scale with IQ->EX length.
        if inst.is_load and dst is not None:
            notify = cycle + config.iq_feedback_delay
            publish = max(notify, avail_time - config.load_fill_wake_lead)
            if config.load_recovery is LoadRecovery.STALL:
                self._schedule(publish, ("spec", inst, dst, avail_time))
            elif config.load_recovery is LoadRecovery.SSR:
                # selective stall (SSR): dependents were held at issue,
                # so this publication cannot mis-speculate — but it may
                # be advanced up to ssr_threshold cycles ahead of the
                # STALL machine's conservative release point, letting a
                # dependent's IQ->EX traversal overlap the tail of the
                # load's latency (readiness still gates on avail_time)
                publish = max(notify, publish - config.ssr_threshold)
                self._schedule(publish, ("spec", inst, dst, avail_time))
            elif not self._load_as_predicted(inst):
                self.stats.load_misspeculations += 1
                self._schedule(notify, ("spec", inst, dst, None))
                self._schedule(publish, ("spec", inst, dst, avail_time))
                if config.load_recovery is LoadRecovery.REFETCH:
                    self._schedule(
                        notify, ("flush", self.threads[inst.thread], inst)
                    )

        # memory dependence loop: a store whose address resolves after a
        # younger load to the same line already executed traps (§1, Fig 2)
        if (
            self.config.memdep is not None
            and inst.op.opclass is OpClass.STORE
        ):
            victim_uid = self._find_reorder_victim(inst, cycle)
            if victim_uid is not None:
                self._schedule(
                    cycle + config.iq_feedback_delay,
                    ("memtrap", inst, victim_uid - 1),
                )

        # branch resolution: release the thread's fetch stall
        thread = self.threads[inst.thread]
        if thread.waiting_branch is inst:
            thread.waiting_branch = None
            thread.fetch_blocked_until = max(
                thread.fetch_blocked_until,
                cycle + config.branch_feedback_delay,
            )

        # confirmation: the IQ entry can be cleared one loop delay later
        self._schedule(
            cycle + config.iq_feedback_delay + config.iq_clear_cycles,
            ("confirm", inst, inst.issue_count),
        )

    def _load_as_predicted(self, inst: DynInst) -> bool:
        """Whether the load behaved like the speculated L1 hit."""
        return bool(inst.dcache_hit) and bool(inst.dtlb_hit) and not inst.bank_conflict

    def _access_memory(self, inst: DynInst, cycle: int) -> int:
        """Data-cache access; returns latency beyond address generation."""
        result = self.hierarchy.load(inst.op.address, cycle + 1) \
            if inst.is_load else self.hierarchy.store(inst.op.address, cycle + 1)
        inst.dcache_hit = result.l1_hit
        inst.l2_hit = result.l2_hit
        inst.dtlb_hit = result.tlb_hit
        inst.bank_conflict = result.bank_conflict
        if inst.is_load:
            self.stats.loads_executed += 1
            if not result.l1_hit:
                self.stats.load_l1_misses += 1
                if result.l2_hit is False:
                    self.stats.load_l2_misses += 1
            if result.bank_conflict:
                self.stats.load_bank_conflicts += 1
        if not result.tlb_hit:
            self.stats.dtlb_misses += 1
            # trap-style recovery: refill the front of the pipe (§3.1)
            thread = self.threads[inst.thread]
            thread.fetch_blocked_until = max(
                thread.fetch_blocked_until,
                cycle + self.config.fetch_depth + self.config.dec_iq,
            )
        return result.latency

    # ------------------------------------------------------------------- issue

    def _issue(self, cycle: int) -> None:
        config = self.config
        hit_latency = config.hierarchy.l1d.hit_latency
        # STALL and SSR both hold dependents until the load resolves:
        # neither publishes an optimistic wakeup at issue
        speculate_loads = config.load_recovery not in (
            LoadRecovery.STALL, LoadRecovery.SSR
        )
        for inst in self.iq.select(cycle):
            self.stats.issues += 1
            if inst.issue_count == 1:
                self.stats.first_issues += 1
            dst = inst.dst_preg
            if dst is not None:
                if inst.is_load:
                    if speculate_loads:
                        # optimistic: assume an L1 hit
                        self.regfile.spec_avail[dst] = (
                            cycle + config.iq_ex + inst.op.exec_latency + hit_latency
                        )
                else:
                    self.regfile.spec_avail[dst] = (
                        cycle + config.iq_ex + inst.op.exec_latency
                    )
            self._exec_pipe.setdefault(cycle + config.iq_ex, []).append(inst)

    # ------------------------------------------------------------------ insert

    def _insert(self, cycle: int) -> None:
        budget = self.config.rename_width
        blocked = False
        for thread in self.threads:
            pipe = thread.insert_pipe
            while budget > 0 and pipe and pipe[0][0] <= cycle:
                if not self.iq.has_space():
                    blocked = True
                    break
                __, inst = pipe.popleft()
                self.iq.insert(inst, cycle)
                inst.in_iq = True
                thread.iq_count += 1
                budget -= 1
        if blocked:
            self.stats.iq_full_stall_cycles += 1

    # ------------------------------------------------------------------ rename

    def _rename(self, cycle: int) -> None:
        config = self.config
        budget = config.rename_width
        blocked = False
        for thread in self.threads:
            pipe = thread.fetch_pipe
            while budget > 0 and pipe and pipe[0][0] <= cycle:
                if self._inflight >= config.rob_entries:
                    blocked = True
                    break
                inst = pipe[0][1]
                if (
                    inst.op.opclass is OpClass.STORE
                    and thread.store_queue is not None
                    and thread.store_queue.full
                ):
                    self.stats.store_queue_full_stalls += 1
                    break
                if inst.op.opclass is OpClass.MEM_BARRIER and thread.rob:
                    # the memory barrier loop (§1): the mapper stalls the
                    # barrier and everything behind it until all preceding
                    # instructions complete — an infrequent loop managed
                    # by stalling rather than speculation
                    self.stats.barrier_stall_cycles += 1
                    break
                needs_preg = inst.op.dst is not None
                if needs_preg and not self.regfile.can_allocate():
                    blocked = True
                    break
                pipe.popleft()
                self._do_rename(thread, inst, cycle)
                budget -= 1
        if blocked:
            self.stats.rob_full_stall_cycles += 1

    def _do_rename(self, thread: _ThreadState, inst: DynInst, cycle: int) -> None:
        config = self.config
        inst.rename_cycle = cycle
        for arch in inst.op.real_srcs:
            inst.src_pregs.append(thread.rename_map.lookup(arch))
        inst.cluster = self._slot_cluster(inst)
        if inst.op.dst is not None:
            new_preg, prev_preg = thread.rename_map.rename_dest(inst.op.dst)
            inst.dst_preg = new_preg
            inst.prev_dst_preg = prev_preg
            self._producer[new_preg] = inst
            if self.dra is not None:
                self.dra.on_allocate(new_preg)
        if self.config.memdep is not None:
            if inst.op.opclass is OpClass.STORE:
                thread.store_queue.add(inst)
            elif inst.is_load:
                policy = self.config.memdep.policy
                if policy is MemDepPolicy.CONSERVATIVE:
                    inst.memdep_wait = True
                elif policy is MemDepPolicy.PREDICT:
                    inst.memdep_wait = self.store_wait.predict_wait(inst.op.pc)
                if inst.memdep_wait:
                    self.stats.store_wait_loads += 1
        if self.dra is not None:
            for preg in inst.src_pregs:
                inst.preread.append(self.dra.try_preread(preg, inst.cluster))
                inst.payload_valid.append(False)
                inst.operand_counted.append(False)
        else:
            count = len(inst.src_pregs)
            inst.preread.extend([False] * count)
            inst.payload_valid.extend([False] * count)
            inst.operand_counted.extend([False] * count)
        thread.rob.append(inst)
        self._inflight += 1
        thread.insert_pipe.append(
            (cycle + config.dec_iq - config.rename_offset, inst)
        )
        if self.obs is not None:
            # emitted after the rename completed so the event carries the
            # full outcome (pregs, pre-read decisions) for checkers
            self.obs.emit(RenameEvent(
                cycle=cycle, uid=inst.uid, thread=inst.thread,
                arch_dst=-1 if inst.op.dst is None else inst.op.dst,
                dst_preg=-1 if inst.dst_preg is None else inst.dst_preg,
                prev_dst_preg=(
                    -1 if inst.prev_dst_preg is None else inst.prev_dst_preg
                ),
                src_pregs=tuple(inst.src_pregs),
                preread=tuple(inst.preread),
            ))

    def _slot_cluster(self, inst: DynInst) -> int:
        """Assign the functional-unit cluster at decode (§2).

        ``dependence`` slotting follows the first in-flight producer so
        dependence trees share a cluster (minimal operand transport);
        anything without an in-flight producer — and everything under
        ``round_robin`` — is spread evenly.
        """
        if self.config.slotting == "dependence":
            # follow the producer unless its cluster is congested (the
            # slotter balances load like the 21264 arbiters)
            limit = 2 * self.config.iq_entries // self.config.num_clusters
            for preg in inst.src_pregs:
                producer = self._producer[preg]
                if producer is not None and not producer.executed:
                    if self.iq.cluster_backlog(producer.cluster) < limit:
                        return producer.cluster
                    break
        cluster = self._cluster_rr
        self._cluster_rr = (self._cluster_rr + 1) % self.config.num_clusters
        return cluster

    # ------------------------------------------------------------------- fetch

    def _fetch(self, cycle: int) -> None:
        if cycle < self._frontend_stall_until:
            self.stats.frontend_dra_stall_cycles += 1
            return
        thread = self._choose_fetch_thread(cycle)
        if thread is None:
            return
        config = self.config
        extra = 0
        group_started = False
        ready_base = cycle + config.fetch_depth + config.rename_offset
        for _ in range(config.fetch_width):
            op = thread.next_op()
            inst = DynInst(op=op, thread=thread.tid)
            inst.fetch_cycle = cycle
            if not group_started:
                extra = self.hierarchy.fetch(op.pc)
                group_started = True
                if self.line_predictor is not None and \
                        thread.last_taken_pc is not None:
                    if not self.line_predictor.observe(
                            thread.last_taken_pc, op.pc):
                        # tight next-line loop mispredict: one fetch bubble
                        thread.fetch_blocked_until = max(
                            thread.fetch_blocked_until,
                            cycle + 1 + self.line_predictor.config.bubble,
                        )
                    thread.last_taken_pc = None
            thread.fetch_pipe.append((ready_base + extra, inst))
            thread.stats.fetched += 1
            if self.obs is not None:
                self.obs.emit(FetchEvent(
                    cycle=cycle, uid=inst.uid, thread=inst.thread,
                    pc=op.pc, opclass=op.opclass.name.lower(),
                ))
            if op.opclass.is_control and self._fetch_control(thread, inst, cycle):
                if op.taken and not inst.mispredicted:
                    thread.last_taken_pc = op.pc
                break

    def _choose_fetch_thread(self, cycle: int) -> Optional[_ThreadState]:
        """Pick a fetch thread among the eligible ones (SMT policy)."""
        eligible: List[_ThreadState] = []
        for thread in self.threads:
            if thread.waiting_branch is not None:
                thread.stats.branch_stall_cycles += 1
                continue
            if thread.fetch_blocked_until > cycle:
                continue
            if thread.frontend_count >= _FRONTEND_LIMIT:
                continue
            eligible.append(thread)
        chosen = choose_fetch_thread(
            eligible, self.config.fetch_policy, self._last_fetch_tid
        )
        if chosen is not None:
            self._last_fetch_tid = chosen.tid
        return chosen

    def _fetch_control(
        self, thread: _ThreadState, inst: DynInst, cycle: int
    ) -> bool:
        """Handle a control op at fetch; True ends the fetch group."""
        op = inst.op
        opclass = op.opclass
        if opclass is OpClass.BRANCH:
            predicted = self.predictor.predict(op.pc)
            self.predictor.update(op.pc, op.taken)
            inst.predicted_taken = predicted
            self.stats.cond_branches += 1
            if predicted != op.taken:
                self.stats.cond_mispredicts += 1
                inst.mispredicted = True
            self._emit_branch_outcome(inst, "cond", cycle)
            if inst.mispredicted:
                thread.waiting_branch = inst
                return True
            if predicted:
                self._btb_redirect(thread, op, cycle)
                return True
            return False
        if opclass is OpClass.CALL:
            thread.ras.push(op.pc + 4)
            self._btb_redirect(thread, op, cycle)
            self._emit_branch_outcome(inst, "call", cycle)
            return True
        if opclass is OpClass.RETURN:
            predicted_target = thread.ras.pop()
            if predicted_target != op.target:
                self.stats.ras_mispredicts += 1
                inst.mispredicted = True
                thread.waiting_branch = inst
            self._emit_branch_outcome(inst, "return", cycle)
            return True
        # direct jump
        self._btb_redirect(thread, op, cycle)
        self._emit_branch_outcome(inst, "jump", cycle)
        return True

    def _emit_branch_outcome(
        self, inst: DynInst, flavor: str, cycle: int
    ) -> None:
        """Branch-resolution-loop probe (no-op without a bus)."""
        if self.obs is None:
            return
        self.obs.emit(BranchOutcomeEvent(
            cycle=cycle, uid=inst.uid, thread=inst.thread,
            pc=inst.op.pc, flavor=flavor, taken=inst.op.taken,
            mispredicted=inst.mispredicted,
        ))

    def _btb_redirect(self, thread: _ThreadState, op: MicroOp, cycle: int) -> None:
        """Taken-path redirect through the BTB; a miss costs a bubble."""
        target = self.btb.lookup(op.pc)
        inst_bubble = 0
        if target is None:
            self.stats.btb_misses += 1
            inst_bubble = self.btb.config.miss_bubble
        self.btb.install(op.pc, op.target)
        if inst_bubble:
            thread.fetch_blocked_until = max(
                thread.fetch_blocked_until, cycle + inst_bubble
            )

    def _find_reorder_victim(
        self, store: DynInst, cycle: int
    ) -> Optional[int]:
        """UID of the oldest younger load that executed against this
        store's word before the store's address was known.

        Conflict checking is word-granular (8 bytes), like real
        load/store queues; line-granular checking would flood the
        store-wait table with false conflicts."""
        word = store.op.address >> 3
        thread = self.threads[store.thread]
        for inst in thread.rob:
            if inst.uid <= store.uid or not inst.is_load:
                continue
            if inst.executed and inst.op.address >> 3 == word:
                if self.store_wait is not None:
                    self.store_wait.train(inst.op.pc)
                return inst.uid
        return None

    # ------------------------------------------------------------------- flush

    def _flush_younger(
        self,
        thread: _ThreadState,
        boundary: DynInst,
        cycle: int,
        reason: str = "load_refetch",
    ) -> None:
        """Squash every instruction of ``thread`` younger than ``boundary``."""
        self._flush_from(thread, boundary.uid, cycle, reason)

    def _flush_from(
        self,
        thread: _ThreadState,
        boundary_uid: int,
        cycle: int,
        reason: str = "load_refetch",
    ) -> None:
        """Squash every instruction of ``thread`` with uid > boundary_uid.

        Rolls back renaming youngest-first, releases IQ entries, and
        queues the squashed micro-ops for replay so fetch re-delivers
        them in program order.
        """
        victims: List[DynInst] = []
        while thread.rob and thread.rob[-1].uid > boundary_uid:
            victims.append(thread.rob.pop())
        for inst in victims:  # youngest first
            if inst.dst_preg is not None:
                thread.rename_map.undo_rename(
                    inst.op.dst, inst.dst_preg, inst.prev_dst_preg
                )
                self._producer[inst.dst_preg] = None
            inst.squashed = True
            if inst.in_iq:
                self.iq.remove_squashed(inst)
                inst.in_iq = False
                thread.iq_count -= 1
            self.stats.squashed_instructions += 1
            if self.obs is not None:
                self.obs.emit(SquashEvent(
                    cycle=cycle, uid=inst.uid, thread=inst.thread,
                    reason=reason,
                ))
        self._inflight -= len(victims)
        thread.insert_pipe = deque(
            item for item in thread.insert_pipe if not item[1].squashed
        )
        # fetch-pipe instructions are dropped and transparently
        # re-fetched; they never entered the OoO machine, so no
        # SquashEvent (keeps event counts reconcilable with CoreStats) —
        # a DropEvent records the discard so the instruction ledger
        # still conserves exactly
        fetch_insts = [item[1] for item in thread.fetch_pipe]
        for inst in fetch_insts:
            inst.squashed = True
            if self.obs is not None:
                self.obs.emit(DropEvent(
                    cycle=cycle, uid=inst.uid, thread=inst.thread
                ))
        thread.fetch_pipe.clear()
        replay_ops = [inst.op for inst in reversed(victims)]
        replay_ops.extend(inst.op for inst in fetch_insts)
        thread.replay.extendleft(reversed(replay_ops))
        if thread.waiting_branch is not None and thread.waiting_branch.squashed:
            thread.waiting_branch = None
        if thread.store_queue is not None:
            thread.store_queue.drop_squashed()
        thread.fetch_blocked_until = max(
            thread.fetch_blocked_until, cycle + 1
        )

    # ------------------------------------------------------------------ warmup

    def functional_warmup(self, ops_per_thread: int) -> None:
        """Fast-forward: train predictors, BTB, caches and TLB.

        Streams instructions through the branch and memory structures
        without detailed pipeline timing, the way execution-driven
        simulators warm state over millions of skipped instructions
        (paper §3.1: 1-2 M warmup instructions).  Must be called before
        :meth:`run`'s detailed simulation begins.
        """
        if self.cycle != 0 or self.retired != 0:
            raise RuntimeError("functional warmup must precede detailed simulation")
        self._functional_stream(ops_per_thread)

    def _functional_stream(self, ops_per_thread: int) -> None:
        """Stream ops through predictors/caches without pipeline timing.

        The engine behind :meth:`functional_warmup`; the sampled
        backend also calls it mid-run to fast-forward between detailed
        measurement windows.  Both kernels run it, so it is written for
        speed: loop-invariant lookups are hoisted, op classes are tested
        by identity, and ops come straight from the engine's
        ``next_op`` (every engine's ``stream()`` is
        ``while True: yield next_op()``).
        """
        BRANCH = OpClass.BRANCH
        CALL = OpClass.CALL
        RETURN = OpClass.RETURN
        JUMP = OpClass.JUMP
        LOAD = OpClass.LOAD
        STORE = OpClass.STORE
        fetch = self.hierarchy.fetch
        load = self.hierarchy.load
        store = self.hierarchy.store
        predict = self.predictor.predict
        update = self.predictor.update
        install = self.btb.install
        line_predictor = self.line_predictor
        for thread in self.threads:
            replay = thread.replay
            ops_next = thread.generator.next_op
            ras_push = thread.ras.push
            ras_pop = thread.ras.pop
            for i in range(ops_per_thread):
                op = replay.popleft() if replay else ops_next()
                opclass = op.opclass
                if not i & 3:
                    fetch(op.pc)
                if line_predictor is not None:
                    if thread.last_taken_pc is not None:
                        line_predictor.observe(thread.last_taken_pc, op.pc)
                        thread.last_taken_pc = None
                    if (opclass is BRANCH or opclass is CALL
                            or opclass is RETURN or opclass is JUMP) \
                            and op.taken:
                        thread.last_taken_pc = op.pc
                if opclass is BRANCH:
                    predict(op.pc)
                    update(op.pc, op.taken)
                    if op.taken:
                        install(op.pc, op.target)
                elif opclass is CALL:
                    ras_push(op.pc + 4)
                    install(op.pc, op.target)
                elif opclass is RETURN:
                    ras_pop()
                elif opclass is JUMP:
                    install(op.pc, op.target)
                elif opclass is LOAD:
                    load(op.address)
                elif opclass is STORE:
                    store(op.address)

    @classmethod
    def warm_key(
        cls, config: CoreConfig, signature: str, seed: int, ops_per_thread: int
    ) -> str:
        """Identity of the state ``functional_warmup(ops_per_thread)``
        trains on ``config`` for a workload with content ``signature``
        (:func:`repro.scenarios.workload_signature`).

        It folds in the stream (workload content, seed, op count), this
        simulator class (its generators are part of the state) and the
        :data:`WARMED_STRUCTURES` config fields — nothing else.  The
        swept loop knobs (rf latency, DRA, ports, recovery, IQ) never
        touch the warmed structures, so cells differing only in them
        share one key.
        """
        import hashlib

        parts = [
            f"{cls.__module__}.{cls.__qualname__}",
            signature,
            str(seed),
            str(ops_per_thread),
            *(repr(getattr(config, name)) for name in WARMED_STRUCTURES),
        ]
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()

    def _own_warm_key(self, ops_per_thread: int) -> str:
        from repro.scenarios.base import entries_signature

        return self.warm_key(
            self.config, entries_signature(self._entries), self.seed,
            ops_per_thread,
        )

    def snapshot_warmup(self, ops_per_thread: int) -> bytes:
        """Run :meth:`functional_warmup` and return the trained state.

        The bytes pickle the pair (warm key, pickled state); hand them
        to :meth:`restore_warmup` on any simulator with the same key.
        """
        import pickle

        self.functional_warmup(ops_per_thread)
        state = (
            [getattr(self, name) for name in WARMED_STRUCTURES],
            [
                [getattr(thread, name) for name in WARMED_THREAD_STATE]
                for thread in self.threads
            ],
        )
        return pickle.dumps(
            (self._own_warm_key(ops_per_thread), _pickle_by_attribute(state))
        )

    def restore_warmup(self, snapshot: bytes, ops_per_thread: int) -> None:
        """Stand-in for ``functional_warmup(ops_per_thread)``: install
        a :meth:`snapshot_warmup` result.

        Raises :class:`~repro.errors.ConfigError` when the snapshot was
        taken under another warm key.  Every call unpickles afresh, so
        one snapshot restores into any number of simulators.  (Copying
        with ``copy.deepcopy`` instead would leave the fast generator's
        cached ``rng.random``/``rng.getrandbits`` bound to the original
        RNG.)
        """
        import pickle

        if self.cycle != 0 or self.retired != 0:
            raise RuntimeError("warm-state restore must precede detailed simulation")
        key, state = pickle.loads(snapshot)
        if key != self._own_warm_key(ops_per_thread):
            raise ConfigError(
                "warm snapshot was taken for another workload, seed, "
                "warmup length, simulator class or memory/branch "
                "configuration"
            )
        shared, threads = pickle.loads(state)
        for name, value in zip(WARMED_STRUCTURES, shared):
            setattr(self, name, value)
        for thread, values in zip(self.threads, threads):
            for name, value in zip(WARMED_THREAD_STATE, values):
                setattr(thread, name, value)
            thread._ops = thread.generator.stream()

    # --------------------------------------------------------------------- run

    @property
    def retired(self) -> int:
        """Total retired instructions so far."""
        return self.stats.retired

    def run(
        self,
        instructions: int,
        warmup: int = 0,
        max_cycles: Optional[int] = None,
    ) -> CoreStats:
        """Run until ``warmup + instructions`` have retired.

        ``warmup`` instructions train the predictors/caches before the
        measurement window opens.  Raises
        :class:`~repro.errors.SimulationHangError` (with a diagnostic
        :class:`~repro.errors.HangSnapshot`) if no instruction retires
        for a long stretch (deadlock detector).
        """
        if instructions < 1:
            raise ConfigError("must simulate at least one instruction")
        target = warmup + instructions
        last_retired = -1
        last_progress_cycle = 0
        warmed = warmup == 0
        if warmed:
            self.stats.start_measurement()
        try:
            while self.retired < target:
                if max_cycles is not None and self.cycle >= max_cycles:
                    break
                self.tick()
                retired = self.retired
                if not warmed and retired >= warmup:
                    self.stats.start_measurement()
                    warmed = True
                if retired != last_retired:
                    last_retired = retired
                    last_progress_cycle = self.cycle
                elif self.cycle - last_progress_cycle > _DEADLOCK_WINDOW:
                    snapshot = self._hang_snapshot(last_progress_cycle)
                    raise SimulationHangError(
                        f"pipeline deadlock: no retire since cycle "
                        f"{last_progress_cycle} (cycle={self.cycle}, "
                        f"retired={retired}, iq={self.iq.count}, "
                        f"inflight={self._inflight})",
                        snapshot,
                    )
        finally:
            # assignment, not +=: stays correct across the sampled
            # backend's repeated run() windows on one simulator
            self.stats.port_stalls = self.iq.port_stalls
        return self.stats

    def _hang_snapshot(self, last_progress_cycle: int) -> HangSnapshot:
        """Diagnostic state for the deadlock detector's exception."""
        oldest: Optional[DynInst] = None
        for thread in self.threads:
            if thread.rob and (oldest is None or thread.rob[0].uid < oldest.uid):
                oldest = thread.rob[0]
        described = None
        if oldest is not None:
            described = (
                f"T{oldest.thread} uid={oldest.uid} "
                f"{oldest.op.opclass.name} pc={oldest.op.pc:#x} "
                f"fetched@{oldest.fetch_cycle} issued {oldest.issue_count}x "
                f"executed={oldest.executed}"
            )
        return HangSnapshot(
            cycle=self.cycle,
            last_retire_cycle=last_progress_cycle,
            retired=self.retired,
            inflight=self._inflight,
            stage_occupancy={
                "fetch/decode": sum(len(t.fetch_pipe) for t in self.threads),
                "rename->IQ": sum(len(t.insert_pipe) for t in self.threads),
                "issue queue": self.iq.count,
                "execute": sum(len(v) for v in self._exec_pipe.values()),
                "rob": sum(len(t.rob) for t in self.threads),
            },
            oldest_instruction=described,
        )
