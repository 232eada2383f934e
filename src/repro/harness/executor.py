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
  descriptor it inherited except its pipe and restores default signal
  handling, and on Linux it is killed with the process that forked
  it, so no cell outlives its campaign or server.  A worker receives
  its work and arguments pickled over that pipe, so it can run one
  job after another: :func:`execute_cells` keeps one worker per
  dispatch slot for the whole batch and closes them all before it
  returns.  A crash, a watchdog kill or any failed reply retires the
  worker, and the slot's next cell forks a fresh one.  A lone
  :func:`run_cell` call (the campaign server's per-job path) forks one
  worker for the cell.  Work or arguments that cannot be pickled fail
  the cell with :class:`~repro.errors.ConfigError`.

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
writes.  The same cache holds functional-warmup snapshots by warm key,
so a batch restores a warmup an earlier batch ran instead of running it
again (see :func:`execute_cells`).  A snapshot pickles the warmed
structures, and the warm key does not cover their layout: changing the
pickled layout of a warmed structure needs a
:data:`~repro.harness.cache.CACHE_VERSION` bump.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
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
        key tell apart configs that differ in anything else; a fault
        spec can target a cell by that ``#`` suffix."""
        return _label(self, self.key)


def _label(cell: Cell, key: str) -> str:
    """:attr:`Cell.label` of ``cell`` from its already computed ``key``."""
    return (f"{cell.workload}/{cell.config.label}/seed{cell.seed}"
            f"#{key[:8]}")


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
    Serve's executor threads outlive their cells, and
    :func:`execute_cells` closes its workers before its dispatch
    threads exit, so in practice it fires when the parent process dies.
    A parent that died before the signal was armed is caught by the
    ``getppid`` check.  A no-op off Linux.
    """
    prctl = _libc_prctl()
    if prctl is None:
        return
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent:
        os._exit(1)


def _worker_main(conn, parent: int) -> None:
    """Subprocess entry point: run each pickled ``(work, args)`` job
    received on ``conn`` and send back its result or error, until the
    pipe closes; ``parent`` is the pid of the process that forked it."""
    _reset_inherited_state(conn)
    _die_with_parent(parent)
    while True:
        try:
            job = conn.recv_bytes()
        except EOFError:
            return
        try:
            work, args = pickle.loads(job)
            conn.send(("ok", work(*args)))
        except BaseException as error:  # classified on the parent side
            try:
                conn.send(("error", _encode_error(error)))
            except BaseException:
                return  # the parent sees the pipe close, as a crash


def _mp_context():
    """Prefer fork (fast, Linux) but survive fork-less platforms."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class _Worker:
    """A forked worker process that runs jobs one at a time.

    The first :meth:`run` forks it.  A job that fails in any way — a
    crash, a watchdog kill, an error reply, work that cannot be sent —
    retires the process, so the next :meth:`run` forks a fresh one.
    """

    def __init__(self) -> None:
        self._process = None
        self._conn = None

    def _start(self) -> None:
        ctx = _mp_context()
        _libc_prctl()  # loaded before the fork, so the worker inherits it
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main, args=(child_conn, os.getpid()), daemon=True,
        )
        process.start()
        child_conn.close()
        self._process, self._conn = process, parent_conn

    def run(self, what: str, work, args: tuple,
            timeout: Optional[float]) -> Any:
        """``work(*args)`` in the worker under a ``timeout``-second
        watchdog; ``what`` names the work in timeout and crash errors."""
        if self._process is None:
            self._start()
        process, conn = self._process, self._conn
        try:
            try:
                conn.send((work, args))
            except OSError as error:
                raise CellCrashError(f"{what} worker is gone ({error})")
            except Exception as error:
                raise ConfigError(
                    f"{what} cannot be sent to a worker "
                    f"({type(error).__name__}: {error})"
                )
            # poll() wakes on data *or* EOF (worker death), so a crash is
            # noticed immediately rather than after the full timeout.
            if not conn.poll(timeout):
                raise CellTimeoutError(
                    f"{what} exceeded {timeout:.1f}s and was killed",
                    timeout=timeout,
                )
            try:
                status, payload = conn.recv()
            except EOFError:
                process.join()
                raise CellCrashError(
                    f"{what} worker died (exit code {process.exitcode})",
                    exitcode=process.exitcode,
                )
        except BaseException:
            self.close()
            raise
        if status == "ok":
            return payload
        self.close()
        raise _decode_error(payload)

    def close(self) -> None:
        """SIGKILL the worker, if one runs, and reap it.  It holds
        nothing that needs a graceful exit, and a join timeout would
        bound nothing: the worker closed the sentinel pipe that ``join``
        waits on."""
        process, conn = self._process, self._conn
        if process is None:
            return
        self._process = self._conn = None
        conn.close()
        process.kill()
        process.join()


class _Workers:
    """The workers of one batch: one per dispatch thread, reused for
    that thread's cells."""

    def __init__(self) -> None:
        self._by_thread: Dict[int, _Worker] = {}

    def run(self, what: str, work, args: tuple,
            timeout: Optional[float]) -> Any:
        """:meth:`_Worker.run` on the calling thread's worker."""
        worker = self._by_thread.setdefault(threading.get_ident(), _Worker())
        return worker.run(what, work, args, timeout)

    def close(self) -> None:
        """Close every worker of the batch."""
        for worker in self._by_thread.values():
            worker.close()


def _run_isolated(
    what: str, work, args: tuple, timeout: Optional[float]
) -> Any:
    """Run ``work(*args)`` in a worker forked for it alone, with a
    watchdog; ``what`` names the work in timeout and crash errors."""
    worker = _Worker()
    try:
        return worker.run(what, work, args, timeout)
    finally:
        worker.close()


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
    *,
    key: Optional[str] = None,
    workers: Optional[_Workers] = None,
) -> CellOutcome:
    """Run one cell with isolation, watchdog and retries, and write its
    result to the cache.

    It never reads the cache: its callers have (:func:`execute_cells`
    once per batch, the campaign server at intake), so the cell runs.

    ``warm`` is a functional-warmup snapshot with this cell's warm key
    (:func:`execute_cells` shares one across a batch); every attempt
    restores it instead of warming.  ``key`` is the cell's key when the
    caller has computed it.  In process mode, ``workers`` are the
    batch's reusable workers; without them each attempt forks a worker
    of its own.
    """
    harness = harness or default_harness()
    if cache is None and harness.cache_dir is not None:
        cache = ResultCache(harness.cache_dir)
    key = key or cell.key
    faults = harness.all_faults()
    isolated = harness.uses_processes
    if isolated:
        _load_kernel(cell)
        isolate = workers.run if workers is not None else _run_isolated
    attempts = 1 + harness.retries
    error: Optional[ReproError] = None
    for attempt in range(1, attempts + 1):
        fault = active_fault(
            faults, cell.workload, cell.config.label, cell.seed,
            attempt, kinds=WORKER_KINDS, key=key,
        )
        try:
            if isolated:
                result = isolate(
                    f"cell {_label(cell, key)}", _attempt_cell,
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
    key) are executed once and share the outcome.  Each distinct cell's
    key and warm key are computed once.  With a cache directory, each
    distinct cell is read from the cache once, here; only the misses
    run (and :func:`run_cell` writes them).

    Cells missing from the cache that share a warm key
    (:meth:`~repro.core.pipeline.Simulator.warm_key`) — the same
    workload, seed and warmup on one memory/branch configuration,
    differing only in loop knobs — are functionally warmed once: the
    warmup is its own unit of work on the batch's worker slots, and its
    snapshot is restored into each of those cells.  A failed warmup
    only means its cells warm themselves.  With a cache directory the
    snapshot is stored under its warm key, and a later batch restores
    it into every missing cell with that key, a lone one too, instead
    of warming.
    """
    from repro.scenarios import workload_signature

    harness = harness or default_harness()
    cache = ResultCache(harness.cache_dir) if harness.cache_dir else None
    signature = functools.lru_cache(maxsize=None)(workload_signature)
    keys: Dict[Cell, str] = {}
    unique: Dict[str, Cell] = {}
    for cell in cells:
        if cell not in keys:
            key = keys[cell] = cell_key(
                cell.workload, cell.config, cell.settings, cell.seed,
                signature(cell.workload),
            )
            unique.setdefault(key, cell)
    by_key: Dict[str, CellOutcome] = {}
    missing: Dict[Optional[str], List[Tuple[Cell, str]]] = {}
    for key, cell in unique.items():
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            by_key[key] = CellOutcome(cell=cell, result=cached, cached=True)
        else:
            missing.setdefault(_warm_key(cell, signature), []).append(
                (cell, key))
    warmups, ready = _plan_warmups(missing, cache)
    if harness.jobs > 1 and len(unique) - len(by_key) > 1:
        pool = ThreadPoolExecutor(max_workers=harness.jobs)
    else:
        pool = _InlinePool()
    workers = _Workers() if harness.uses_processes else None
    with pool:
        try:
            # warmups take the first slots; ready cells fill the rest
            # while they run, and each warmup queues its cells when it
            # finishes
            waves = [
                pool.submit(_warm_then_run, pool, warm_key, group, harness,
                            cache, workers)
                for warm_key, group in warmups
            ]
            runs = [
                pool.submit(run_cell, cell, harness, cache, warm, key=key,
                            workers=workers)
                for cell, key, warm in ready
            ]
            for wave in waves:
                runs.extend(wave.result())
            outcomes = [run.result() for run in runs]
        finally:
            # before the dispatch threads exit: a worker's parent-death
            # signal fires when the thread that forked it exits
            if workers is not None:
                workers.close()
    for outcome in outcomes:
        by_key[keys[outcome.cell]] = outcome
    return [by_key[keys[cell]] for cell in cells]


class _InlinePool:
    """``ThreadPoolExecutor.submit`` for one worker slot: the work runs
    at once on the calling thread."""

    def submit(self, work, *args, **kwargs) -> Future:
        future: Future = Future()
        future.set_result(work(*args, **kwargs))
        return future

    def __enter__(self) -> "_InlinePool":
        return self

    def __exit__(self, *exc) -> None:
        return None


#: Missing cells of a batch as (cell, key) pairs.
_Group = List[Tuple[Cell, str]]


def _plan_warmups(
    missing: Dict[Optional[str], _Group], cache: Optional[ResultCache],
) -> Tuple[List[Tuple[str, _Group]], List[Tuple[Cell, str, Optional[bytes]]]]:
    """Split the missing cells, grouped by warm key, into warmups
    ``(warm key, group)`` — a key two or more cells share that the
    cache holds no snapshot for — and cells ready to run ``(cell, key,
    snapshot or None)``: those restoring a stored snapshot and those
    that warm themselves."""
    warmups: List[Tuple[str, _Group]] = []
    ready: List[Tuple[Cell, str, Optional[bytes]]] = []
    for warm_key, group in missing.items():
        warm = None
        if warm_key is not None and cache is not None:
            warm = cache.get_warm(warm_key)
        if warm is None and warm_key is not None and len(group) > 1:
            warmups.append((warm_key, group))
        else:
            ready.extend((cell, key, warm) for cell, key in group)
    return warmups, ready


def _warm_key(cell: Cell, signature) -> Optional[str]:
    """The warm key ``cell`` would warm under; None when its warmup is
    empty or its workload or backend cannot be resolved (the cell then
    fails on its own, with the real error).  ``signature`` maps a
    workload name to its content signature."""
    from repro.core.backend import parse_backend

    settings = cell.settings
    if settings.warmup <= 0:
        return None
    content = signature(cell.workload)
    if content == "unresolved":
        return None
    try:
        kernel = parse_backend(getattr(settings, "backend", DEFAULT_BACKEND))
    except ConfigError:
        return None
    return kernel.simulator_class.warm_key(
        cell.config, content, cell.seed, settings.warmup
    )


def _warm_then_run(
    pool, warm_key: str, group: _Group, harness: HarnessSettings,
    cache: Optional[ResultCache], workers: Optional[_Workers],
) -> List[Future]:
    """Warm ``group``'s shared state once, store the snapshot under
    ``warm_key``, then queue its cells."""
    first, first_key = group[0]
    try:
        if workers is not None:
            _load_kernel(first)
            warm = workers.run(
                f"warmup for {_label(first, first_key)}", _warm_cell,
                (first,), harness.cell_timeout,
            )
        else:
            warm = _warm_cell(first)
    except ReproError:
        # the cells warm themselves; run_cell then classifies, retries
        # and reports any failure per cell, exactly as without sharing
        warm = None
    if warm is not None and cache is not None:
        try:
            cache.put_warm(warm_key, warm)
        except OSError:
            pass  # the cache is an accelerator, never worth failing a cell
    return [
        pool.submit(run_cell, cell, harness, cache, warm, key=key,
                    workers=workers)
        for cell, key in group
    ]
