"""Fault-tolerant cell execution: isolation, watchdog, retries, cache.

The unit of work is a :class:`Cell` — one (workload, config, settings,
seed) simulation.  :func:`execute_cells` runs a batch of cells and
*always returns*: every cell ends in a :class:`CellOutcome` carrying
either a :class:`~repro.core.SimResult` or the classified error that
defeated it, so campaigns degrade to partial results instead of
aborting (see :mod:`repro.experiments.runner` for the campaign layer).

Execution modes
---------------
* **inline** — the cell runs in this process.  No timeout protection,
  zero overhead; the default for interactive single runs and the test
  suite.
* **process** — the cell runs in a forked worker with a wall-clock
  watchdog; a hung worker is killed and reported as
  :class:`~repro.errors.CellTimeoutError`, a dead one as
  :class:`~repro.errors.CellCrashError`.  A worker closes every
  descriptor it inherited except its result pipe and restores default
  signal handling, and on Linux it is killed with the process that
  forked it, so no cell outlives its campaign or server.

``isolate="auto"`` picks process mode whenever a timeout or ``jobs > 1``
asks for it, and ``isolate="inline"`` never forks.  Retryable failures
(timeout, crash, transient) are retried ``retries`` times with capped
exponential backoff (:data:`BACKOFF_BASE_S` doubling per retry, at most
:data:`BACKOFF_CAP_S`); deterministic ones (config/workload errors,
simulation deadlocks) fail immediately.

With a cache directory configured, finished cells are persisted through
:class:`~repro.harness.cache.ResultCache` and later campaigns resume by
re-executing only the missing cells.  The cache is read once per cell,
before it runs: :func:`execute_cells` reads each distinct cell of a
batch, and the campaign server reads at intake.  :func:`run_cell` only
writes.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal
import sys
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.backend import DEFAULT_BACKEND
from repro.errors import (
    CellCrashError,
    CellTimeoutError,
    ConfigError,
    HangSnapshot,
    ReproError,
    SimulationHangError,
    TransientCellError,
    VerificationError,
    WorkloadError,
    is_retryable,
)
from repro.harness.cache import ResultCache, cell_key
from repro.harness.faults import (
    WORKER_KINDS,
    FaultSpec,
    active_fault,
    env_faults,
    trigger,
)

#: First retry backoff in seconds; doubles per retry.
BACKOFF_BASE_S = 0.25
#: Retry backoff ceiling in seconds.
BACKOFF_CAP_S = 4.0


@dataclass(frozen=True)
class HarnessSettings:
    """How a campaign's cells are executed and recovered.

    A cached cell is always reused; to recompute it, use a fresh
    ``cache_dir``.
    """

    #: Concurrent worker slots (process mode when > 1).
    jobs: int = 1
    #: Per-cell wall-clock budget in seconds (None = unbounded).
    cell_timeout: Optional[float] = None
    #: Re-runs granted to retryably-failed cells.
    retries: int = 2
    #: "auto" | "inline".
    isolate: str = "auto"
    #: Persistent cache root (None = no reuse across batches).
    cache_dir: Optional[str] = None
    #: Programmatic fault injections (merged with $REPRO_FAULTS).
    faults: Tuple[FaultSpec, ...] = ()
    #: Run every freshly-computed cell under the verification layer
    #: (:mod:`repro.verify`): golden retire model plus event-stream
    #: invariant checkers.  Violations surface as a non-retryable
    #: :class:`~repro.errors.VerificationError`.  An execution policy,
    #: not part of the cell's identity — cached results are returned
    #: as-is without re-verification.
    verify: bool = False

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.retries < 0:
            raise ConfigError("retries cannot be negative")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ConfigError("cell timeout must be positive")
        if self.isolate not in ("auto", "inline"):
            raise ConfigError(f"unknown isolation mode {self.isolate!r}")

    @property
    def uses_processes(self) -> bool:
        """Whether cells run in worker subprocesses."""
        if self.isolate == "inline":
            return False
        return self.jobs > 1 or self.cell_timeout is not None

    def all_faults(self) -> Tuple[FaultSpec, ...]:
        """Configured plus environment-specified faults."""
        return self.faults + env_faults()

    def replace(self, **changes) -> "HarnessSettings":
        """A modified copy."""
        return replace(self, **changes)


_DEFAULT_HARNESS = HarnessSettings()


def default_harness() -> HarnessSettings:
    """The process-wide harness used when a caller passes None."""
    return _DEFAULT_HARNESS


def set_default_harness(settings: HarnessSettings) -> HarnessSettings:
    """Install a new process-wide default harness; returns the old one."""
    global _DEFAULT_HARNESS
    previous = _DEFAULT_HARNESS
    _DEFAULT_HARNESS = settings
    return previous


@dataclass(frozen=True)
class Cell:
    """One (workload, config, settings, seed) simulation."""

    workload: str
    config: Any  # CoreConfig (typed loosely to keep this module core-free)
    settings: Any  # ExperimentSettings
    seed: int

    @property
    def key(self) -> str:
        """Content address of this cell in the persistent cache."""
        return cell_key(self.workload, self.config, self.settings, self.seed)

    @property
    def label(self) -> str:
        """Human-readable cell identity for reports.  ``CoreConfig.label``
        is only the pipeline notation, so the first 8 hex digits of the
        key tell apart configs that differ in anything else."""
        return (f"{self.workload}/{self.config.label}/seed{self.seed}"
                f"#{self.key[:8]}")


@dataclass(frozen=True)
class CellFailure:
    """Terminal failure record for one cell (after retries)."""

    #: The failed cell's :attr:`Cell.label`.
    label: str
    kind: str
    message: str
    attempts: int

    def describe(self) -> str:
        """One report line."""
        return (
            f"{self.label}: "
            f"{self.kind} after {self.attempts} attempt(s): {self.message}"
        )


@dataclass
class CellOutcome:
    """What happened to one cell: a result, or a classified failure."""

    cell: Cell
    result: Optional[Any] = None  # SimResult on success
    error: Optional[ReproError] = None
    attempts: int = 0
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None

    def failure(self) -> CellFailure:
        """This outcome as a failure record (requires ``not ok``)."""
        assert self.error is not None
        return CellFailure(
            label=self.cell.label,
            kind=type(self.error).__name__,
            message=str(self.error),
            attempts=self.attempts,
        )


# --------------------------------------------------------------------------
# Cell execution
# --------------------------------------------------------------------------

def _simulate_cell(
    cell: Cell, verify: bool = False, warm: Optional[bytes] = None
) -> Any:
    """Run one cell's simulation in the current process."""
    from repro.core.simulator import simulate

    settings = cell.settings
    verifier = None
    if verify:
        from repro.verify import Verifier

        verifier = Verifier()
    result = simulate(
        cell.workload,
        cell.config,
        instructions=settings.instructions,
        warmup=settings.warmup,
        detailed_warmup=settings.detailed_warmup,
        seed=cell.seed,
        verifier=verifier,
        backend=getattr(settings, "backend", DEFAULT_BACKEND),
        warm=warm,
    )
    if verifier is not None:
        verifier.raise_if_failed(context=cell.label)
    return result


def _attempt_cell(
    cell: Cell,
    fault: Optional[FaultSpec],
    isolated: bool,
    verify: bool,
    warm: Optional[bytes],
) -> Any:
    """One attempt at a cell: fire its injected fault, then simulate."""
    if fault is not None:
        trigger(fault, isolated=isolated)
    return _simulate_cell(cell, verify=verify, warm=warm)


def _load_kernel(cell: Cell) -> None:
    """Import ``cell``'s simulation kernel in this process, so workers
    forked from it inherit the kernel instead of each importing it."""
    from repro.core.backend import parse_backend

    parse_backend(getattr(cell.settings, "backend", DEFAULT_BACKEND)
                  ).simulator_class


def _warm_cell(cell: Cell) -> bytes:
    """The functional warmup ``cell`` would run, as snapshot bytes."""
    from repro.core.simulator import warm_snapshot

    settings = cell.settings
    return warm_snapshot(
        cell.workload,
        cell.config,
        warmup=settings.warmup,
        seed=cell.seed,
        backend=getattr(settings, "backend", DEFAULT_BACKEND),
    )


def _encode_error(error: BaseException) -> Dict[str, Any]:
    """A pipe-safe rendering of a worker-side exception."""
    encoded: Dict[str, Any] = {
        "kind": type(error).__name__ if isinstance(error, ReproError)
        else "CellCrashError",
        "message": str(error) if isinstance(error, ReproError)
        else f"worker raised {type(error).__name__}: {error}",
    }
    snapshot = getattr(error, "snapshot", None)
    if isinstance(snapshot, HangSnapshot):
        encoded["snapshot"] = snapshot
    return encoded


_ERROR_CLASSES = {
    cls.__name__: cls
    for cls in (
        ReproError, ConfigError, WorkloadError,
        SimulationHangError, CellTimeoutError, CellCrashError,
        TransientCellError, VerificationError,
    )
}


def _decode_error(encoded: Dict[str, Any]) -> ReproError:
    """Rebuild a worker-side exception from its pipe rendering."""
    cls = _ERROR_CLASSES.get(encoded["kind"], ReproError)
    if cls is SimulationHangError:
        return SimulationHangError(encoded["message"], encoded.get("snapshot"))
    return cls(encoded["message"])


#: ``PR_SET_PDEATHSIG`` from ``<linux/prctl.h>``.
_PR_SET_PDEATHSIG = 1


@functools.lru_cache(maxsize=None)
def _libc_prctl():
    """libc's ``prctl`` on Linux, else None.  Resolved in the parent
    before it forks, so workers inherit it instead of importing
    ctypes each."""
    if not sys.platform.startswith("linux"):
        return None
    import ctypes

    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return None
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl


def _reset_inherited_state(conn) -> None:
    """Drop what a forked worker inherited but must not hold.

    A fork copies every open descriptor and the signal setup of its
    parent.  In a server those are the listening and client sockets,
    sibling workers' pipe ends and the event loop's signal handlers,
    whose wakeup fd is the loop's own.  A worker holding a sibling's
    write end hides that sibling's death until it exits, one holding a
    client socket keeps the connection open after the server closed
    it, and a signal caught by an inherited handler is delivered to the
    server's loop.  So close every descriptor but stdio and ``conn``,
    and restore the default signal handling.
    """
    if os.name == "posix":
        keep = conn.fileno()
        os.closerange(3, keep)
        os.closerange(max(3, keep + 1), os.sysconf("SC_OPEN_MAX"))
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _die_with_parent(parent: int) -> None:
    """Have the kernel SIGKILL this worker when its parent dies, so a
    ``kill -9``'d server or campaign leaves no cell running.

    The signal fires when the *thread* that forked the worker exits.
    Serve's executor threads and the dispatch threads of
    :func:`execute_cells` outlive their cells, so in practice it fires
    when the parent process dies.  A parent that died before the signal
    was armed is caught by the ``getppid`` check.  A no-op off Linux.
    """
    prctl = _libc_prctl()
    if prctl is None:
        return
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent:
        os._exit(1)


def _worker_main(conn, work, args: tuple, parent: int) -> None:
    """Subprocess entry point: run ``work(*args)``, report through
    ``conn``; ``parent`` is the pid of the process that forked it."""
    _reset_inherited_state(conn)
    _die_with_parent(parent)
    try:
        conn.send(("ok", work(*args)))
    except BaseException as error:  # classified on the parent side
        try:
            conn.send(("error", _encode_error(error)))
        except BaseException:
            pass
    finally:
        conn.close()


def _mp_context():
    """Prefer fork (fast, Linux) but survive fork-less platforms."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _run_isolated(
    what: str, work, args: tuple, timeout: Optional[float]
) -> Any:
    """Run ``work(*args)`` in a worker subprocess with a watchdog;
    ``what`` names the work in timeout and crash errors."""
    ctx = _mp_context()
    _libc_prctl()  # loaded before the fork, so the worker inherits it
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_worker_main, args=(child_conn, work, args, os.getpid()),
        daemon=True,
    )
    process.start()
    child_conn.close()
    try:
        # poll() wakes on data *or* EOF (worker death), so a crash is
        # noticed immediately rather than after the full timeout.
        if not parent_conn.poll(timeout):
            _kill(process)
            raise CellTimeoutError(
                f"{what} exceeded {timeout:.1f}s and was killed",
                timeout=timeout,
            )
        try:
            status, payload = parent_conn.recv()
        except EOFError:
            process.join()
            raise CellCrashError(
                f"{what} worker died (exit code {process.exitcode})",
                exitcode=process.exitcode,
            )
        process.join()
        if status == "ok":
            return payload
        raise _decode_error(payload)
    finally:
        parent_conn.close()
        if process.is_alive():
            _kill(process)


def _kill(process) -> None:
    """SIGKILL a worker and reap it.  It holds nothing that needs a
    graceful exit, and a join timeout would bound nothing: the worker
    closed the sentinel pipe that ``join`` waits on."""
    process.kill()
    process.join()


def _put_metrics_snapshot(cache: ResultCache, key: str, result: Any) -> None:
    """Persist the cell's JSON metric snapshot; best-effort only."""
    from repro.obs.export import result_snapshot

    try:
        cache.put_metrics(key, result_snapshot(result))
    except OSError:
        pass  # the snapshot is an audit aid, never worth failing a cell


def run_cell(
    cell: Cell,
    harness: Optional[HarnessSettings] = None,
    cache: Optional[ResultCache] = None,
    warm: Optional[bytes] = None,
) -> CellOutcome:
    """Run one cell with isolation, watchdog and retries, and write its
    result to the cache.

    It never reads the cache: its callers have (:func:`execute_cells`
    once per batch, the campaign server at intake), so the cell runs.

    ``warm`` is a functional-warmup snapshot with this cell's warm key
    (:func:`execute_cells` shares one across a batch); every attempt
    restores it instead of warming.
    """
    harness = harness or default_harness()
    if cache is None and harness.cache_dir is not None:
        cache = ResultCache(harness.cache_dir)
    faults = harness.all_faults()
    isolated = harness.uses_processes
    if isolated:
        _load_kernel(cell)
    attempts = 1 + harness.retries
    error: Optional[ReproError] = None
    for attempt in range(1, attempts + 1):
        fault = active_fault(
            faults, cell.workload, cell.config.label, cell.seed,
            attempt, kinds=WORKER_KINDS,
        )
        try:
            if isolated:
                result = _run_isolated(
                    f"cell {cell.label}", _attempt_cell,
                    (cell, fault, True, harness.verify, warm),
                    harness.cell_timeout,
                )
            else:
                result = _attempt_cell(cell, fault, False, harness.verify, warm)
        except ReproError as failure:
            error = failure
            if not is_retryable(failure) or attempt == attempts:
                break
            time.sleep(
                min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** (attempt - 1))
            )
            continue
        except KeyError as failure:
            # A raw KeyError escaping an unisolated worker (workload
            # lookups raise WorkloadError and are classified above).
            error = WorkloadError(str(failure))
            break
        if cache is not None:
            key = cell.key
            cache.put(
                key,
                result,
                meta={
                    "workload": cell.workload,
                    "config": cell.config.label,
                    "seed": cell.seed,
                    "backend": getattr(result, "backend", "reference"),
                },
            )
            _put_metrics_snapshot(cache, key, result)
        return CellOutcome(cell=cell, result=result, attempts=attempt)
    return CellOutcome(cell=cell, error=error, attempts=attempt)


def execute_cells(
    cells: Sequence[Cell],
    harness: Optional[HarnessSettings] = None,
) -> List[CellOutcome]:
    """Execute a batch of cells, ``jobs`` at a time; never raises.

    Outcomes are returned in input order.  Duplicate cells (same content
    key) are executed once and share the outcome.  With a cache
    directory, each distinct cell is read from the cache once, here;
    only the misses run (and :func:`run_cell` writes them).

    Cells missing from the cache that share a warm key
    (:meth:`~repro.core.pipeline.Simulator.warm_key`) — the same
    workload, seed and warmup on one memory/branch configuration,
    differing only in loop knobs — are functionally warmed once: the
    warmup is its own unit of work on the batch's worker slots, and its
    snapshot is restored into each of those cells.  A failed warmup
    only means its cells warm themselves.
    """
    harness = harness or default_harness()
    cache = ResultCache(harness.cache_dir) if harness.cache_dir else None
    unique: Dict[str, Cell] = {}
    for cell in cells:
        unique.setdefault(cell.key, cell)
    by_key: Dict[str, CellOutcome] = {}
    missing: List[Cell] = []
    for key, cell in unique.items():
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            by_key[key] = CellOutcome(cell=cell, result=cached, cached=True)
        else:
            missing.append(cell)
    shared, alone = _plan_warmups(missing)
    if harness.jobs > 1 and len(missing) > 1:
        pool = ThreadPoolExecutor(max_workers=harness.jobs)
    else:
        pool = _InlinePool()
    with pool:
        # warmups take the first slots; lone cells fill the rest while
        # they run, and each warmup queues its cells when it finishes
        waves = [
            pool.submit(_warm_then_run, pool, group, harness, cache)
            for group in shared
        ]
        runs = [pool.submit(run_cell, cell, harness, cache) for cell in alone]
        for wave in waves:
            runs.extend(wave.result())
        outcomes = [run.result() for run in runs]
    for outcome in outcomes:
        by_key[outcome.cell.key] = outcome
    return [by_key[cell.key] for cell in cells]


class _InlinePool:
    """``ThreadPoolExecutor.submit`` for one worker slot: the work runs
    at once on the calling thread."""

    def submit(self, work, *args) -> Future:
        future: Future = Future()
        future.set_result(work(*args))
        return future

    def __enter__(self) -> "_InlinePool":
        return self

    def __exit__(self, *exc) -> None:
        return None


def _plan_warmups(cells: Sequence[Cell]) -> Tuple[List[List[Cell]], List[Cell]]:
    """Split ``cells`` into groups of two or more sharing a warm key,
    and the cells that warm alone."""
    groups: Dict[str, List[Cell]] = {}
    alone: List[Cell] = []
    for cell in cells:
        key = _warm_key(cell)
        if key is None:
            alone.append(cell)
        else:
            groups.setdefault(key, []).append(cell)
    shared = [group for group in groups.values() if len(group) > 1]
    alone.extend(group[0] for group in groups.values() if len(group) == 1)
    return shared, alone


def _warm_key(cell: Cell) -> Optional[str]:
    """The warm key ``cell`` would warm under; None when its warmup is
    empty or its workload or backend cannot be resolved (the cell then
    fails on its own, with the real error)."""
    from repro.core.backend import parse_backend
    from repro.scenarios import workload_signature

    settings = cell.settings
    if settings.warmup <= 0:
        return None
    signature = workload_signature(cell.workload)
    if signature == "unresolved":
        return None
    try:
        kernel = parse_backend(getattr(settings, "backend", DEFAULT_BACKEND))
    except ConfigError:
        return None
    return kernel.simulator_class.warm_key(
        cell.config, signature, cell.seed, settings.warmup
    )


def _warm_then_run(
    pool, group: List[Cell], harness: HarnessSettings,
    cache: Optional[ResultCache],
) -> List[Future]:
    """Warm ``group``'s shared state once, then queue its cells."""
    try:
        if harness.uses_processes:
            _load_kernel(group[0])
            warm = _run_isolated(
                f"warmup for {group[0].label}", _warm_cell, (group[0],),
                harness.cell_timeout,
            )
        else:
            warm = _warm_cell(group[0])
    except ReproError:
        # the cells warm themselves; run_cell then classifies, retries
        # and reports any failure per cell, exactly as without sharing
        warm = None
    return [
        pool.submit(run_cell, cell, harness, cache, warm) for cell in group
    ]
