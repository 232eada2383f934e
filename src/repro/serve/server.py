"""The campaign server: asyncio TCP front end over the fault-tolerant
harness.

Architecture (mirroring the SMTcheck profiling-server shape: listener ->
job queue -> core scheduler -> storage)::

    TCP listener (JSON lines)
        -> ResultCache read (a hit is answered at once)
        -> dedup (content-addressed cell keys; concurrent identical
           submits coalesce onto one in-flight job)
        -> one bounded FIFO job queue with 429-style load shedding
        -> worker threads, one job each
        -> repro.harness.run_cell (watchdog, classified retries)
           -> ResultCache write

The cache is read once per submit, at intake, and once per replayed
job, at replay; ``run_cell`` only writes it.

Where a cell runs: serve always arms the harness watchdog, at
``--cell-timeout`` if given and otherwise at :data:`CELL_TIMEOUT_S`.  An
armed watchdog makes ``auto`` isolation fork a subprocess per cell, so
``--workers N`` simulates N cells in parallel, and a hung cell is killed
and retried instead of holding its worker for good.  ``--isolate
inline`` opts out: cells then run on the worker threads, which share
one interpreter lock, at most one simulation runs at a time, and
nothing bounds a hung cell.

Robustness properties, each tested by the chaos suite:

* **Run once, idempotent.**  A worker runs each job once through
  ``run_cell``, whose watchdog and retries are the only timer and retry
  loop; a replayed job whose result is already cached completes at
  replay without running.
* **Crash-safe.**  Every accepted job is journaled before it is
  acknowledged; ``--resume`` replays accepted-but-not-done jobs after a
  ``kill -9``.
* **Bounded.**  A full queue sheds load with a ``retry_after`` hint
  instead of growing without bound, and a finished job is freed: the
  server holds only live work (queued or running jobs) and counters.
* **Inherited cell fault tolerance.**  Worker crashes, hangs and
  transient faults are classified and retried by the harness.
* **Gracefully drainable.**  SIGTERM (or a ``drain`` message) stops
  intake, finishes accepted work, journals a clean-shutdown marker and
  exits.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigError, ReproError
from repro.harness import (
    SERVICE_KINDS,
    Cell,
    CellOutcome,
    HarnessSettings,
    ResultCache,
    active_fault,
    run_cell,
)
from repro.obs import MetricsRegistry
from repro.serve import journal as journal_mod
from repro.serve.journal import Journal
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    build_cell,
    decode,
    encode,
    result_to_wire,
)

#: Watchdog budget of one cell attempt when no ``cell_timeout`` is set.
CELL_TIMEOUT_S = 360.0

#: Jobs waiting for a worker before intake sheds submits with a 429.
QUEUE_DEPTH = 64

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"


@dataclass
class Job:
    """One accepted cell, from intake until a worker completes it::

        queued -> running -> done | failed
    """

    id: str
    cell: Cell
    spec: Dict[str, Any]          # wire spec, journaled for replay
    state: str = QUEUED
    #: Terminal outcome (a ``CellOutcome``) once done/failed.
    outcome: Optional[Any] = None
    #: Futures resolved with the outcome at completion; one per waiting
    #: client request (deduplicated submits all land here).
    waiters: List["asyncio.Future"] = field(default_factory=list)

    @property
    def key(self) -> str:
        """The cell's content address (dedup identity)."""
        return self.cell.key

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, FAILED)

    def subscribe(self) -> "asyncio.Future":
        """A future resolved with this job's terminal outcome."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        if self.terminal:
            future.set_result(self.outcome)
        else:
            self.waiters.append(future)
        return future

    def resolve(self, outcome: Any, state: str) -> None:
        """Move to a terminal state and wake every waiter (idempotent:
        a second completion is ignored)."""
        if self.terminal:
            return
        self.state = state
        self.outcome = outcome
        waiters, self.waiters = self.waiters, []
        for future in waiters:
            if not future.done():
                future.set_result(outcome)


@dataclass
class ServeSettings:
    """How the campaign server listens, queues, runs and journals."""

    host: str = "127.0.0.1"
    #: 0 = pick a free port (reported by ``CampaignServer.port``).
    port: int = 0
    #: Worker threads, each executing one cell at a time.  With
    #: ``auto`` or ``process`` isolation each cell is forked, so this
    #: many cells simulate in parallel; ``inline`` cells share the
    #: interpreter lock and run one at a time.
    workers: int = 2
    #: Crash-safe journal location (None = journalling off).
    journal_path: Optional[str] = None
    #: fsync each journal record (safest; slower).
    journal_fsync: bool = False
    #: Replay accepted-but-unfinished journal jobs on startup.
    resume: bool = False
    #: Cell execution policy (isolation, watchdog, retries, cache).
    harness: HarnessSettings = field(default_factory=HarnessSettings)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError("serve workers must be >= 1")
        if self.resume and not self.journal_path:
            raise ConfigError("--resume needs a journal path")


class CampaignServer:
    """One listening campaign service instance."""

    def __init__(self, settings: ServeSettings):
        self.settings = settings
        self.harness = settings.harness
        if self.harness.cell_timeout is None:
            # the armed watchdog makes ``auto`` isolation fork each cell
            self.harness = self.harness.replace(cell_timeout=CELL_TIMEOUT_S)
        #: Accepted jobs in arrival order; drain appends one ``None``
        #: per worker behind them.
        self.queue: "asyncio.Queue[Optional[Job]]" = asyncio.Queue()
        #: cell key -> queued or running job (the dedup register); a job
        #: leaves it, and the server, when it completes.
        self.inflight: Dict[str, Job] = {}
        self.cache: Optional[ResultCache] = (
            ResultCache(self.harness.cache_dir)
            if self.harness.cache_dir else None
        )
        self.journal: Optional[Journal] = None
        self.registry = MetricsRegistry()
        self._counters = {
            name: self.registry.counter(f"serve.{name}")
            for name in (
                "submitted", "accepted", "rejected_full",
                "rejected_draining", "dedup_coalesced", "cache_hits",
                "executed", "completed", "failed",
                "disconnects_injected", "resumed",
            )
        }
        # never incremented; perfbench's serve_metrics still reads it
        self.registry.counter("serve.requeued")
        self._service_ms = self.registry.histogram("serve.service_ms")
        self._draining = False
        self._drained = False
        self._started_at = time.monotonic()
        self._seq = 0
        #: cell key -> delivery attempts seen by the disconnect fault.
        self._disconnect_counts: Dict[str, int] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._worker_tasks: list = []
        self._writers: set = set()

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        """Open the journal (replaying if resuming), the listener and
        the worker pool."""
        pending = []
        if self.settings.journal_path:
            if self.settings.resume:
                journal_mod.compact(self.settings.journal_path)
                pending = journal_mod.pending_jobs(self.settings.journal_path)
            self.journal = Journal(self.settings.journal_path,
                                   fsync=self.settings.journal_fsync)
        self._pool = ThreadPoolExecutor(
            max_workers=self.settings.workers,
            thread_name_prefix="serve-cell",
        )
        for record in pending:
            await self._restore_job(record)
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.settings.host,
            port=self.settings.port,
            limit=MAX_LINE_BYTES,
        )
        self._worker_tasks = [
            asyncio.ensure_future(self._worker(f"w{index}"))
            for index in range(self.settings.workers)
        ]

    async def serve_forever(self) -> None:
        assert self._server is not None, "server not started"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def drain(self) -> None:
        """Graceful shutdown: stop intake, finish accepted work, journal
        the clean-shutdown marker, close everything."""
        if self._draining:
            return
        self._draining = True
        for _ in self._worker_tasks:
            self.queue.put_nowait(None)
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        # Give waiting connection handlers a tick to deliver results.
        await asyncio.sleep(0.05)
        if self.journal is not None:
            self.journal.append({"rec": "drain"})
            self.journal.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._close_lingering_connections()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        self._drained = True

    async def abort(self) -> None:
        """Abrupt shutdown (test stand-in for ``kill -9``): no drain
        record, no backlog flush — the journal must carry the state."""
        for task in self._worker_tasks:
            task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._close_lingering_connections()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        if self.journal is not None:
            self.journal.close()

    def _close_lingering_connections(self) -> None:
        """EOF any still-open client connections so their handler tasks
        unwind with the loop still running."""
        for writer in list(self._writers):
            try:
                writer.close()
            except (OSError, RuntimeError):
                pass

    # -- job intake --------------------------------------------------------

    def _next_job_id(self) -> str:
        self._seq += 1
        return f"j-{self._seq}"

    async def _restore_job(self, record: Dict[str, Any]) -> None:
        """Re-queue one journaled accepted-but-unfinished job, or
        complete it at once if its result is already cached (the run
        finished, but its ``done`` record was lost with the process)."""
        job_id = record.get("job", self._next_job_id())
        # Keep fresh ids clear of replayed ones.
        try:
            self._seq = max(self._seq, int(str(job_id).rsplit("-", 1)[-1]))
        except ValueError:
            pass
        try:
            cell = build_cell(record["cell"])
        except (KeyError, ReproError, ValueError) as error:
            if self.journal is not None:
                self.journal.append({
                    "rec": "done", "job": job_id, "ok": False,
                    "reason": f"unreplayable: {error}",
                })
            return
        job = Job(id=str(job_id), cell=cell, spec=dict(record["cell"]))
        self._counters["resumed"].inc()
        cached = self.cache.get(job.key) if self.cache is not None else None
        if cached is not None:
            self._counters["cache_hits"].inc()
            self._complete(job, CellOutcome(cell=cell, result=cached,
                                            cached=True))
            return
        # Replayed jobs bypass QUEUE_DEPTH: a previous server accepted them.
        self.inflight[job.key] = job
        self.queue.put_nowait(job)

    # -- connection handling ----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, {
                        "type": "error", "message": "wire line too long",
                    })
                    break
                if not line:
                    break
                try:
                    message = decode(line)
                except ConfigError as error:
                    await self._send(writer, {
                        "type": "error", "message": str(error),
                    })
                    continue
                if not await self._dispatch(message, writer):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _send(self, writer: asyncio.StreamWriter,
                    message: Dict[str, Any]) -> None:
        writer.write(encode(message))
        await writer.drain()

    async def _dispatch(self, message: Dict[str, Any],
                        writer: asyncio.StreamWriter) -> bool:
        """Handle one message; False closes the connection."""
        kind = message.get("type")
        if kind == "submit":
            return await self._handle_submit(message, writer)
        if kind == "health":
            await self._send(writer, self._health())
            return True
        if kind == "status":
            await self._send(writer, self._status())
            return True
        if kind == "stats":
            await self._send(writer, self._stats())
            return True
        if kind == "drain":
            await self._send(writer, {"type": "draining"})
            asyncio.ensure_future(self.drain())
            return False
        await self._send(writer, {
            "type": "error", "message": f"unknown message type {kind!r}",
        })
        return True

    async def _handle_submit(self, message: Dict[str, Any],
                             writer: asyncio.StreamWriter) -> bool:
        rid = message.get("id")
        self._counters["submitted"].inc()
        if self._draining:
            self._counters["rejected_draining"].inc()
            await self._send(writer, {
                "type": "rejected", "id": rid, "code": 503,
                "reason": "draining", "retry_after": None,
            })
            return True
        try:
            cell = build_cell(message.get("cell"))
        except (ReproError, ValueError) as error:
            await self._send(writer, {
                "type": "error", "id": rid, "message": str(error),
            })
            return True
        want_pickle = bool(message.get("pickle"))
        wait = message.get("wait", True)
        key = cell.key

        # Storage fast path: the cache already holds this cell.
        cached = self.cache.get(key) if self.cache is not None else None
        if cached is not None:
            outcome = CellOutcome(cell=cell, result=cached, cached=True)
            self._counters["cache_hits"].inc()
            await self._send(writer, {
                "type": "accepted", "id": rid, "job": None, "key": key,
                "dedup": False, "cached": True,
            })
            if wait:
                return await self._deliver(writer, rid, outcome, want_pickle)
            return True

        # Dedup: coalesce onto the in-flight job for the same cell.
        job = self.inflight.get(key)
        dedup = job is not None
        if dedup:
            self._counters["dedup_coalesced"].inc()
        elif self.queue.qsize() >= QUEUE_DEPTH:
            self._counters["rejected_full"].inc()
            await self._send(writer, {
                "type": "rejected", "id": rid, "code": 429,
                "reason": f"job queue full ({QUEUE_DEPTH} queued)",
                "retry_after": round(self._retry_after(), 3),
            })
            return True
        else:
            job = Job(id=self._next_job_id(), cell=cell,
                      spec=dict(message.get("cell") or {}))
            self.queue.put_nowait(job)
            self.inflight[key] = job
            self._counters["accepted"].inc()
            if self.journal is not None:
                self.journal.append({
                    "rec": "accepted", "job": job.id, "key": key,
                    "cell": job.spec,
                })
        await self._send(writer, {
            "type": "accepted", "id": rid, "job": job.id, "key": key,
            "dedup": dedup, "cached": False,
        })
        if not wait:
            return True
        outcome = await job.subscribe()
        return await self._deliver(writer, rid, outcome, want_pickle)

    def _retry_after(self) -> float:
        """Backoff hint for a shed submit: the time for the backlog to
        clear, (queued + 1) mean service times over the workers (a
        service time is taken as 1 s until the first job finishes)."""
        service = self._service_ms
        mean_s = service.mean / 1000 if service.count else 1.0
        return (self.queue.qsize() + 1) * mean_s / self.settings.workers

    async def _deliver(self, writer: asyncio.StreamWriter, rid: Any,
                       outcome: CellOutcome, want_pickle: bool) -> bool:
        """Send a terminal outcome — unless a ``disconnect`` chaos fault
        says to drop the connection instead (the client's retry then
        rides the cache/dedup path)."""
        cell = outcome.cell
        if self._maybe_disconnect(cell):
            return False
        if outcome.ok:
            reply = {
                "type": "result", "id": rid, "ok": True,
                "cached": outcome.cached, "attempts": outcome.attempts,
                "result": result_to_wire(outcome.result, want_pickle),
            }
        else:
            reply = {
                "type": "result", "id": rid, "ok": False,
                "cached": False, "attempts": outcome.attempts,
                "error": {
                    "kind": type(outcome.error).__name__,
                    "message": str(outcome.error),
                },
            }
        await self._send(writer, reply)
        return True

    def _maybe_disconnect(self, cell) -> bool:
        count = self._disconnect_counts.get(cell.key, 0) + 1
        fault = active_fault(
            self.harness.all_faults(), cell.workload, cell.config.label,
            cell.seed, count, kinds=SERVICE_KINDS,
        )
        if fault is None:
            return False
        self._disconnect_counts[cell.key] = count
        self._counters["disconnects_injected"].inc()
        return True

    # -- execution ---------------------------------------------------------

    async def _worker(self, name: str) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self.queue.get()
            if job is None:
                return
            job.state = RUNNING
            if self.journal is not None:
                self.journal.append({
                    "rec": "running", "job": job.id, "worker": name,
                })
            self._counters["executed"].inc()
            started = time.monotonic()
            try:
                outcome = await loop.run_in_executor(
                    self._pool, run_cell, job.cell, self.harness, self.cache,
                )
            except Exception as error:  # defensive: run_cell never raises
                outcome = CellOutcome(
                    cell=job.cell, error=ReproError(str(error)), attempts=1,
                )
            elapsed = time.monotonic() - started
            self._service_ms.observe(int(elapsed * 1000))
            self._complete(job, outcome)

    def _complete(self, job: Job, outcome: CellOutcome) -> None:
        job.resolve(outcome, DONE if outcome.ok else FAILED)
        if self.inflight.get(job.key) is job:
            del self.inflight[job.key]
        self._counters["completed" if outcome.ok else "failed"].inc()
        if self.journal is not None:
            self.journal.append({
                "rec": "done", "job": job.id, "ok": outcome.ok,
                "cached": outcome.cached,
            })

    # -- introspection -----------------------------------------------------

    def _job_states(self) -> Dict[str, int]:
        """Live jobs by state, plus the finished ones as counted."""
        states = {QUEUED: 0, RUNNING: 0,
                  DONE: self._counters["completed"].value,
                  FAILED: self._counters["failed"].value}
        for job in self.inflight.values():
            states[job.state] += 1
        return states

    def _refresh_gauges(self) -> None:
        self.registry.gauge("serve.queued").set(self._job_states()[QUEUED])
        self.registry.gauge("serve.jobs_inflight").set(len(self.inflight))

    def _health(self) -> Dict[str, Any]:
        return {
            "type": "health",
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "draining": self._draining,
            "uptime": round(time.monotonic() - self._started_at, 3),
            "jobs": (self._counters["accepted"].value
                     + self._counters["resumed"].value),
            "running": self._job_states()[RUNNING],
        }

    def _status(self) -> Dict[str, Any]:
        states = self._job_states()
        return {
            "type": "status",
            "draining": self._draining,
            "queued": states[QUEUED],
            "jobs": states,
        }

    def _stats(self) -> Dict[str, Any]:
        self._refresh_gauges()
        reply: Dict[str, Any] = {
            "type": "stats",
            "metrics": self.registry.snapshot(),
        }
        if self.cache is not None:
            reply["cache"] = {
                "hits": self.cache.hits, "misses": self.cache.misses,
                "corrupt_swallowed": self.cache.corrupt_swallowed,
            }
        return reply


async def run_server(settings: ServeSettings,
                     install_signal_handlers: bool = True) -> None:
    """Start a server and run it until drained (the CLI entry point).

    SIGTERM and SIGINT trigger a graceful drain: intake stops, accepted
    cells finish, the journal gets its clean-shutdown marker.
    """
    server = CampaignServer(settings)
    await server.start()
    if install_signal_handlers:
        import signal

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(server.drain())
            )
    print(f"loopsim serve: listening on "
          f"{settings.host}:{server.port}", flush=True)
    serve_task = asyncio.ensure_future(server.serve_forever())
    while not server._drained:
        await asyncio.sleep(0.1)
    serve_task.cancel()
    print("loopsim serve: drained, bye", flush=True)
