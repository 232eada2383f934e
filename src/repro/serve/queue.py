"""Job model and bounded priority lanes with explicit load shedding.

A :class:`Job` is one accepted simulation cell travelling through the
service::

    queued -> running -> done | failed

A job runs once; the harness (:func:`~repro.harness.run_cell`) owns its
watchdog and retries.  The :class:`JobQueue` holds two bounded lanes —
``interactive`` ahead of ``batch`` — and *rejects*
(:class:`QueueFullError`, carrying a ``retry_after`` hint) rather than
buffering without bound: memory growth under overload becomes the
client's backoff problem, not the server's OOM.  Journal-replayed jobs
bypass the bound: they were accepted by a previous server.

The queue is asyncio-native: ``take()`` parks workers on a condition
variable; ``close()`` wakes them with ``None`` so drain can join them.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from repro.errors import ReproError
from repro.harness import Cell
from repro.serve.protocol import LANES

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"


class QueueFullError(ReproError):
    """The target lane is at capacity; retry after ``retry_after``s."""

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = retry_after


@dataclass
class Job:
    """One accepted cell and everything the service knows about it."""

    id: str
    cell: Cell
    spec: Dict[str, Any]          # wire spec, journaled for replay
    priority: str = "batch"
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


class JobQueue:
    """Two bounded priority lanes feeding the worker pool."""

    def __init__(self, lane_depth: int = 64):
        if lane_depth < 1:
            raise ValueError("lane depth must be >= 1")
        self.lane_depth = lane_depth
        self._lanes: Dict[str, Deque[Job]] = {lane: deque() for lane in LANES}
        self._condition = asyncio.Condition()
        self._closed = False
        self.rejected = 0

    def depth(self, lane: str) -> int:
        return len(self._lanes[lane])

    def depths(self) -> Dict[str, int]:
        return {lane: len(jobs) for lane, jobs in self._lanes.items()}

    def __len__(self) -> int:
        return sum(len(jobs) for jobs in self._lanes.values())

    def retry_after(self, lane: str, est_cell_seconds: float,
                    workers: int) -> float:
        """Backoff hint for a shed request: roughly the time for the
        lane's current backlog to clear."""
        backlog = self.depth(lane) + 1
        return max(0.1, backlog * est_cell_seconds / max(1, workers))

    async def offer(self, job: Job, est_cell_seconds: float = 1.0,
                    workers: int = 1) -> None:
        """Enqueue a fresh job, or shed it with :class:`QueueFullError`."""
        lane = job.priority
        if lane not in self._lanes:
            raise ValueError(f"unknown priority lane {lane!r}")
        async with self._condition:
            if len(self._lanes[lane]) >= self.lane_depth:
                self.rejected += 1
                raise QueueFullError(
                    f"{lane} lane full ({self.lane_depth} queued)",
                    retry_after=self.retry_after(
                        lane, est_cell_seconds, workers),
                )
            job.state = QUEUED
            self._lanes[lane].append(job)
            self._condition.notify()

    async def restore(self, job: Job) -> None:
        """Append a journal-replayed job in arrival order, bypassing the
        bound (it was accepted by a previous server incarnation)."""
        async with self._condition:
            job.state = QUEUED
            self._lanes[job.priority].append(job)
            self._condition.notify()

    async def take(self) -> Optional[Job]:
        """The next job, interactive lane first; None once closed."""
        async with self._condition:
            while True:
                for lane in LANES:
                    if self._lanes[lane]:
                        return self._lanes[lane].popleft()
                if self._closed:
                    return None
                await self._condition.wait()

    async def close(self) -> None:
        """Stop the queue: blocked and future ``take()`` calls get None
        once the lanes are empty."""
        async with self._condition:
            self._closed = True
            self._condition.notify_all()
