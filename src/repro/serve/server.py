"""The campaign server: asyncio TCP front end over the fault-tolerant
harness.

Architecture (mirroring the SMTcheck profiling-server shape: listener ->
job queue -> core scheduler -> storage)::

    TCP listener (JSON lines)
        -> dedup (content-addressed cell keys; concurrent identical
           submits coalesce onto one in-flight job)
        -> bounded priority lanes (interactive > batch) with 429-style
           load shedding
        -> worker threads, each execution under a lease
        -> repro.harness.run_cell (watchdog, classified retries)
           -> shared ResultCache (storage)

Where a cell runs follows the harness's ``isolate`` setting.  With the
defaults (``--isolate auto`` and no ``--cell-timeout``) cells run
inline on the worker threads, which share one interpreter lock:
``--workers N`` overlaps queueing, protocol and cache I/O, but at most
one simulation runs at a time.  ``--isolate process`` (or an armed
``--cell-timeout``) forks a subprocess per cell, which simulates in
parallel and adds the hang watchdog.

Robustness properties, each tested by the chaos suite:

* **At-least-once, idempotent.**  Leases expire and jobs requeue; a
  duplicate execution writes the same content-addressed bytes and the
  first terminal outcome wins.
* **Crash-safe.**  Every accepted job is journaled before it is
  acknowledged; ``--resume`` replays accepted-but-not-done jobs after a
  ``kill -9``.
* **Bounded.**  Full lanes shed load with a ``retry_after`` hint
  instead of growing without bound.
* **Inherited cell fault tolerance.**  Worker crashes, hangs and
  transient faults are classified and retried by the harness; what
  escapes the harness (an expired lease) the service layer requeues.
* **Gracefully drainable.**  SIGTERM (or a ``drain`` message) stops
  intake, finishes accepted work, journals a clean-shutdown marker and
  exits.
"""

from __future__ import annotations

import asyncio
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import (
    CellTimeoutError,
    ConfigError,
    ReproError,
    WorkloadError,
    is_retryable,
)
from repro.harness import (
    SERVICE_KINDS,
    CellOutcome,
    HarnessSettings,
    ResultCache,
    active_fault,
    run_cell,
)
from repro.obs import MetricsRegistry
from repro.serve import journal as journal_mod
from repro.serve.journal import Journal
from repro.serve.leases import LeaseManager
from repro.serve.protocol import (
    LANES,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    build_cell,
    decode,
    encode,
    result_to_wire,
)
from repro.serve.queue import (
    DONE,
    FAILED,
    LEASED,
    QUEUED,
    Job,
    JobQueue,
    QueueFullError,
)


@dataclass
class ServeSettings:
    """How the campaign server listens, queues, leases and journals."""

    host: str = "127.0.0.1"
    #: 0 = pick a free port (reported by ``CampaignServer.port``).
    port: int = 0
    #: Worker threads, each executing one leased cell at a time.  Inline
    #: cells (the default isolation) share the interpreter lock, so
    #: only forked cells (``isolate="process"``, or ``"auto"`` with a
    #: cell timeout) simulate in parallel.
    workers: int = 2
    #: Queued jobs tolerated per priority lane before load shedding.
    lane_depth: int = 64
    #: Lease wall-clock budget; expiry requeues the job.
    lease_ttl: float = 120.0
    #: Lease grants per job before it is failed outright.
    max_lease_attempts: int = 3
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
        if self.max_lease_attempts < 1:
            raise ConfigError("max lease attempts must be >= 1")
        if self.lease_ttl <= 0:
            raise ConfigError("lease ttl must be positive")
        if self.resume and not self.journal_path:
            raise ConfigError("--resume needs a journal path")


class CampaignServer:
    """One listening campaign service instance."""

    def __init__(self, settings: ServeSettings):
        self.settings = settings
        self.harness = settings.harness
        self.queue = JobQueue(lane_depth=settings.lane_depth)
        self.leases = LeaseManager(ttl=settings.lease_ttl)
        self.jobs: Dict[str, Job] = {}
        #: cell key -> non-terminal job (the dedup register).
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
                "executed", "completed", "failed", "requeued",
                "lease_expired", "disconnects_injected", "resumed",
            )
        }
        self._service_ms = self.registry.histogram("serve.service_ms")
        self._draining = False
        self._drained = False
        self._started_at = time.monotonic()
        self._seq = 0
        self._est_cell_seconds = 1.0
        #: cell key -> delivery attempts seen by the disconnect fault.
        self._disconnect_counts: Dict[str, int] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._worker_tasks: list = []
        self._reaper_task: Optional[asyncio.Task] = None
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
        self._reaper_task = asyncio.ensure_future(self._reaper())

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
        await self.queue.close()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        if self._reaper_task is not None:
            self._reaper_task.cancel()
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
        if self._reaper_task is not None:
            self._reaper_task.cancel()
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
        """Re-queue one journaled accepted-but-unfinished job."""
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
        priority = record.get("priority", "batch")
        if priority not in LANES:
            priority = "batch"
        job = Job(id=str(job_id), cell=cell, spec=dict(record["cell"]),
                  priority=priority)
        self.jobs[job.id] = job
        self.inflight[job.key] = job
        await self.queue.restore(job)
        self._counters["resumed"].inc()

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
        priority = message.get("priority", "batch")
        if priority not in LANES:
            await self._send(writer, {
                "type": "error", "id": rid,
                "message": f"unknown priority {priority!r}; "
                           f"lanes: {', '.join(LANES)}",
            })
            return True
        want_pickle = bool(message.get("pickle"))
        wait = message.get("wait", True)
        key = cell.key

        # Storage fast path: the cache already holds this cell.
        cached = (self.cache.get(key)
                  if self.cache is not None and self.harness.resume
                  else None)
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
        dedup = job is not None and not job.terminal
        if dedup:
            self._counters["dedup_coalesced"].inc()
        else:
            job = Job(id=self._next_job_id(), cell=cell,
                      spec=dict(message.get("cell") or {}),
                      priority=priority)
            try:
                await self.queue.offer(
                    job, est_cell_seconds=self._est_cell_seconds,
                    workers=self.settings.workers,
                )
            except QueueFullError as error:
                self._counters["rejected_full"].inc()
                await self._send(writer, {
                    "type": "rejected", "id": rid, "code": 429,
                    "reason": str(error),
                    "retry_after": round(error.retry_after, 3),
                })
                return True
            self.jobs[job.id] = job
            self.inflight[key] = job
            self._counters["accepted"].inc()
            if self.journal is not None:
                self.journal.append({
                    "rec": "accepted", "job": job.id, "key": key,
                    "priority": priority, "cell": job.spec,
                })
        await self._send(writer, {
            "type": "accepted", "id": rid, "job": job.id, "key": key,
            "dedup": dedup, "cached": False,
        })
        if not wait:
            return True
        outcome = await job.subscribe()
        return await self._deliver(writer, rid, outcome, want_pickle)

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
            job = await self.queue.take()
            if job is None:
                return
            if job.terminal:
                continue
            job.state = LEASED
            self.leases.grant(job, name)
            if self.journal is not None:
                self.journal.append({
                    "rec": "leased", "job": job.id, "worker": name,
                })
            self._counters["executed"].inc()
            started = time.monotonic()
            try:
                outcome = await loop.run_in_executor(
                    self._pool,
                    functools.partial(
                        run_cell, job.cell, self.harness, self.cache,
                        attempt_offset=job.harness_attempts,
                    ),
                )
            except Exception as error:  # defensive: run_cell never raises
                outcome = CellOutcome(
                    cell=job.cell, error=ReproError(str(error)), attempts=1,
                )
            job.harness_attempts += max(1, outcome.attempts)
            self.leases.release(job)
            elapsed = time.monotonic() - started
            self._service_ms.observe(int(elapsed * 1000))
            self._est_cell_seconds = (
                0.7 * self._est_cell_seconds + 0.3 * max(elapsed, 0.01)
            )
            if job.terminal:
                continue  # a post-expiry duplicate already finished it
            if outcome.ok:
                self._complete(job, outcome)
            elif (outcome.error is not None and is_retryable(outcome.error)
                    and job.leases < self.settings.max_lease_attempts):
                self._counters["requeued"].inc()
                if self.journal is not None:
                    self.journal.append({
                        "rec": "requeued", "job": job.id,
                        "reason": type(outcome.error).__name__,
                    })
                await self.queue.requeue(job)
            else:
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

    async def _reaper(self) -> None:
        """Requeue (or fail) jobs whose leases expired."""
        interval = max(0.05, min(1.0, self.settings.lease_ttl / 4))
        while True:
            await asyncio.sleep(interval)
            for lease in self.leases.reap():
                job = lease.job
                if job.terminal:
                    continue
                self._counters["lease_expired"].inc()
                if job.leases >= self.settings.max_lease_attempts:
                    self._complete(job, CellOutcome(
                        cell=job.cell,
                        error=CellTimeoutError(
                            f"job {job.id} exhausted "
                            f"{job.leases} lease(s)"),
                        attempts=job.harness_attempts,
                    ))
                    continue
                if self.journal is not None:
                    self.journal.append({
                        "rec": "requeued", "job": job.id,
                        "reason": "lease-expired",
                    })
                await self.queue.requeue(job)

    # -- introspection -----------------------------------------------------

    def _job_states(self) -> Dict[str, int]:
        states = {QUEUED: 0, LEASED: 0, DONE: 0, FAILED: 0}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return states

    def _refresh_gauges(self) -> None:
        depths = self.queue.depths()
        for lane in LANES:
            self.registry.gauge(f"serve.queue_{lane}").set(depths[lane])
        self.registry.gauge("serve.leases_active").set(len(self.leases))
        self.registry.gauge("serve.jobs_inflight").set(len(self.inflight))

    def _health(self) -> Dict[str, Any]:
        return {
            "type": "health",
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "draining": self._draining,
            "uptime": round(time.monotonic() - self._started_at, 3),
            "jobs": len(self.jobs),
            "leases": len(self.leases),
        }

    def _status(self) -> Dict[str, Any]:
        return {
            "type": "status",
            "draining": self._draining,
            "queues": self.queue.depths(),
            "jobs": self._job_states(),
            "leases": len(self.leases),
            "lease_expirations": self.leases.expirations,
            "est_cell_seconds": round(self._est_cell_seconds, 4),
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
