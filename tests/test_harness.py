"""Tests for the fault-tolerant experiment harness.

Covers the recovery paths end to end: fault-injected hang -> watchdog
timeout -> retry -> success; persistent crash -> partial campaign plus
failure report; and resume of an interrupted campaign reusing cached
cells.  Simulation cells are tiny so the subprocess paths stay fast.
"""

import dataclasses
import multiprocessing
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import CoreConfig
from repro.errors import (
    CellCrashError,
    CellTimeoutError,
    ConfigError,
    SimulationHangError,
    TransientCellError,
    WorkloadError,
    is_retryable,
)
from repro.experiments import ExperimentSettings, run_config
from repro.experiments.runner import run_campaign
from repro.harness import (
    Cell,
    FaultSpec,
    HarnessSettings,
    ResultCache,
    cell_key,
    execute_cells,
    parse_faults,
    run_cell,
)
from repro.harness import executor as executor_mod
from repro.harness.executor import _run_isolated

TINY = ExperimentSettings(instructions=250, warmup=2_000, detailed_warmup=80)
BASE = CoreConfig.base()


def tiny_cell(workload="m88ksim", config=BASE, seed=0) -> Cell:
    return Cell(workload=workload, config=config, settings=TINY, seed=seed)


class TestCellKey:
    def test_stable(self):
        assert cell_key("swim", BASE, TINY, 0) == cell_key("swim", BASE, TINY, 0)

    def test_distinguishes_every_dimension(self):
        base = cell_key("swim", BASE, TINY, 0)
        assert cell_key("gcc", BASE, TINY, 0) != base
        assert cell_key("swim", CoreConfig.base().with_pipe(3, 3), TINY, 0) != base
        assert cell_key("swim", BASE, ExperimentSettings(instructions=99), 0) != base
        assert cell_key("swim", BASE, TINY, 1) != base

    def test_independent_of_campaign_seed_list(self):
        # The same (workload, config, seed) cell must share a cache slot
        # whether it was requested by a 1-seed or a 3-seed campaign.
        one = ExperimentSettings(instructions=250, warmup=2_000,
                                 detailed_warmup=80, seeds=(0,))
        many = ExperimentSettings(instructions=250, warmup=2_000,
                                  detailed_warmup=80, seeds=(0, 1, 2))
        assert cell_key("swim", BASE, one, 1) == cell_key("swim", BASE, many, 1)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, {"ipc": 1.5}, meta={"workload": "swim"})
        assert cache.get("ab" + "0" * 62) == {"ipc": 1.5}
        assert cache.hits == 1

    def test_missing_is_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ff" + "0" * 62) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        path = cache.path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.corrupt_swallowed == 0
        assert cache.get(key) is None
        assert not path.exists()
        # the swallowed decode failure is counted, not silent
        assert cache.corrupt_swallowed == 1

    def test_version_mismatch_is_not_counted_corrupt(self, tmp_path):
        # stale-version entries decode fine; only decode failures count
        cache = ResultCache(tmp_path)
        key = "ee" + "1" * 62
        path = cache.path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"version": -1, "result": 42}))
        assert cache.get(key) is None
        assert cache.corrupt_swallowed == 0

    def test_unexpected_error_in_load_propagates(self, tmp_path):
        # the narrowed except must not swallow arbitrary exceptions:
        # a KeyboardInterrupt-ish programming error escapes get
        cache = ResultCache(tmp_path)
        key = "cf" + "0" * 62
        path = cache.path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"whatever")
        real_load = pickle.load

        def boom(handle):
            raise KeyboardInterrupt

        pickle.load = boom
        try:
            with pytest.raises(KeyboardInterrupt):
                cache.get(key)
        finally:
            pickle.load = real_load
        assert cache.corrupt_swallowed == 0

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ee" + "0" * 62
        path = cache.path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"version": -1, "result": 42}))
        assert cache.get(key) is None

    def test_remove_corrupt_spares_a_racing_rewrite(self, tmp_path):
        # The corrupt-entry unlink races concurrent put()s: once another
        # writer os.replace()s a fresh payload in (new inode), the
        # removal must leave it alone.
        import os

        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"garbage")
        with path.open("rb") as handle:
            stat = os.fstat(handle.fileno())
        cache.put(key, {"ipc": 2.0})  # the racing rewrite (new inode)
        ResultCache._remove_corrupt(path, stat)
        assert cache.get(key) == {"ipc": 2.0}
        # Same inode (no race): the unlink fires.
        path2 = cache.path("ba" + "0" * 62)
        path2.parent.mkdir(parents=True)
        path2.write_bytes(b"garbage")
        with path2.open("rb") as handle:
            stat2 = os.fstat(handle.fileno())
        ResultCache._remove_corrupt(path2, stat2)
        assert not path2.exists()
        # A vanished entry (stat=None or already unlinked) never raises.
        ResultCache._remove_corrupt(path2, stat2)
        ResultCache._remove_corrupt(path2, None)


@pytest.mark.usefixtures("no_backoff")
class TestCacheCorruptionRecovery:
    """A damaged entry reads as a miss exactly once, then the cell is
    recomputed and re-cached (the ISSUE's corruption-recovery triad)."""

    def prime(self, tmp_path):
        harness = HarnessSettings(isolate="inline", cache_dir=str(tmp_path))
        cell = tiny_cell()
        first = run_cell(cell, harness)
        assert first.ok and not first.cached
        return harness, cell, ResultCache(tmp_path)

    def recheck(self, harness, cell, cache):
        [recomputed] = execute_cells([cell], harness)
        assert recomputed.ok and not recomputed.cached
        [again] = execute_cells([cell], harness)
        assert again.ok and again.cached
        assert again.result.ipc == recomputed.result.ipc

    def test_truncated_pickle(self, tmp_path):
        harness, cell, cache = self.prime(tmp_path)
        path = cache.path(cell.key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.get(cell.key) is None
        assert cache.misses == 1
        assert not path.exists()  # dropped on first read
        self.recheck(harness, cell, cache)

    def test_version_mismatch(self, tmp_path):
        harness, cell, cache = self.prime(tmp_path)
        path = cache.path(cell.key)
        path.write_bytes(pickle.dumps({"version": -1, "result": "old"}))
        assert cache.get(cell.key) is None
        assert path.exists()  # stale, not garbage: put() overwrites it
        self.recheck(harness, cell, cache)

    @pytest.mark.skipif(
        hasattr(os, "geteuid") and os.geteuid() == 0,
        reason="root ignores file permission bits",
    )
    def test_unreadable_permissions(self, tmp_path):
        harness, cell, cache = self.prime(tmp_path)
        path = cache.path(cell.key)
        path.chmod(0o000)
        try:
            assert cache.get(cell.key) is None
            assert cache.misses == 1
            # Recompute; put()'s atomic replace supersedes the entry.
            self.recheck(harness, cell, cache)
        finally:
            if path.exists():
                path.chmod(0o644)


class TestFaultSpecs:
    def test_parse_round_trip(self):
        specs = parse_faults("hang|swim|Base:5_5|0|1;crash|compress")
        assert specs[0] == FaultSpec("hang", "swim", "Base:5_5", "0", 1)
        assert specs[1] == FaultSpec("crash", "compress")

    def test_matching_respects_attempts(self):
        spec = FaultSpec("transient", "swim", attempts=2)
        assert spec.matches("swim", "Base:5_5", 0, 1)
        assert spec.matches("swim", "Base:5_5", 0, 2)
        assert not spec.matches("swim", "Base:5_5", 0, 3)
        assert not spec.matches("gcc", "Base:5_5", 0, 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec("meltdown")

    def test_key_prefix_targets_one_of_a_shared_label(self):
        # two configs with one pipeline label; the key prefix that ends
        # Cell.label tells them apart
        wide = tiny_cell(config=CoreConfig.base(iq_entries=64))
        narrow = tiny_cell()
        assert wide.config.label == narrow.config.label
        [spec] = parse_faults(f"crash|m88ksim|#{wide.key[:8]}")
        assert spec.encode().startswith(f"crash|m88ksim|#{wide.key[:8]}|")
        label = wide.config.label
        assert spec.matches("m88ksim", label, 0, 1, key=wide.key)
        assert not spec.matches("m88ksim", label, 0, 1, key=narrow.key)
        assert not spec.matches("m88ksim", label, 0, 1)  # no key given
        assert wide.label.endswith(spec.config_label)

    @pytest.mark.parametrize("prefix", ["#", "#XYZ", "#6F32"])
    def test_malformed_key_prefix_rejected(self, prefix):
        with pytest.raises(ConfigError, match="key prefix"):
            parse_faults(f"crash|swim|{prefix}")

    def test_slow_parse_round_trip(self):
        specs = parse_faults("slow|*|*|*|2|0.5;slow|swim")
        assert specs[0] == FaultSpec("slow", attempts=2, delay_s=0.5)
        assert specs[1] == FaultSpec("slow", "swim")  # delay optional
        for spec in specs + (FaultSpec("crash", "gcc", attempts=3),):
            assert parse_faults(spec.encode()) == (spec,)

    def test_malformed_slow_specs_rejected(self):
        with pytest.raises(ConfigError):
            parse_faults("slow|*|*|*|1|fast")  # non-numeric delay
        with pytest.raises(ConfigError):
            parse_faults("slow|*|*|*|1|0.5|extra")  # too many fields
        with pytest.raises(ConfigError):
            FaultSpec("slow", delay_s=-1.0)

    def test_slow_fault_delays_then_succeeds(self, no_backoff):
        harness = HarnessSettings(
            isolate="inline",
            faults=(FaultSpec("slow", "m88ksim", attempts=1, delay_s=0.2),),
        )
        started = time.monotonic()
        outcome = run_cell(tiny_cell(), harness)
        assert outcome.ok
        assert outcome.attempts == 1  # slowed, not failed
        assert time.monotonic() - started >= 0.2

    def test_slow_delay_is_capped(self, monkeypatch):
        # A typo'd delay must not wedge a campaign: trigger() clamps the
        # sleep to SLOW_DELAY_CAP.
        from repro.harness import faults as faults_mod

        naps = []
        monkeypatch.setattr(faults_mod.time, "sleep",
                            lambda seconds: naps.append(seconds))
        faults_mod.trigger(FaultSpec("slow", delay_s=1e9), isolated=False)
        assert naps == [faults_mod.SLOW_DELAY_CAP]

    def test_disconnect_is_a_worker_noop(self, no_backoff):
        # disconnect is a service-level kind: the executor filters it
        # out (WORKER_KINDS) and the cell runs untouched.
        harness = HarnessSettings(
            isolate="inline",
            faults=(FaultSpec("disconnect", attempts=99),),
        )
        outcome = run_cell(tiny_cell(), harness)
        assert outcome.ok
        assert outcome.attempts == 1


class TestRetry:
    def test_transient_fault_retries_to_success(self, no_backoff):
        harness = HarnessSettings(
            isolate="inline",
            faults=(FaultSpec("transient", "m88ksim", attempts=1),),
        )
        outcome = run_cell(tiny_cell(), harness)
        assert outcome.ok
        assert outcome.attempts == 2

    def test_persistent_fault_exhausts_retries(self, no_backoff):
        harness = HarnessSettings(
            retries=2, isolate="inline",
            faults=(FaultSpec("transient", "m88ksim", attempts=99),),
        )
        outcome = run_cell(tiny_cell(), harness)
        assert not outcome.ok
        assert outcome.attempts == 3
        assert isinstance(outcome.error, TransientCellError)
        assert is_retryable(outcome.error)

    def test_config_errors_are_not_retried(self):
        bad = ExperimentSettings(instructions=0, warmup=100, detailed_warmup=0)
        cell = Cell(workload="m88ksim", config=BASE, settings=bad, seed=0)
        outcome = run_cell(cell, HarnessSettings(isolate="inline"))
        assert not outcome.ok
        assert outcome.attempts == 1
        assert isinstance(outcome.error, ConfigError)

    def test_unknown_workload_classified(self):
        outcome = run_cell(
            tiny_cell(workload="doom3"), HarnessSettings(isolate="inline")
        )
        assert not outcome.ok
        assert isinstance(outcome.error, WorkloadError)
        assert outcome.attempts == 1


class TestProcessIsolation:
    def test_subprocess_matches_inline_result(self):
        inline = run_cell(tiny_cell(), HarnessSettings(isolate="inline"))
        isolated = run_cell(tiny_cell(), HarnessSettings(cell_timeout=60.0))
        assert inline.ok and isolated.ok
        assert isolated.result.ipc == inline.result.ipc

    def test_hang_timeout_retry_success(self, no_backoff):
        # Attempt 1 hangs and is killed by the watchdog; attempt 2 runs
        # clean: the exact recovery sequence the harness exists for.
        harness = HarnessSettings(
            cell_timeout=2.0, retries=1,
            faults=(FaultSpec("hang", "m88ksim", attempts=1),),
        )
        outcome = run_cell(tiny_cell(), harness)
        assert outcome.ok
        assert outcome.attempts == 2

    def test_persistent_hang_reports_timeout(self, no_backoff):
        harness = HarnessSettings(
            cell_timeout=0.5, retries=1,
            faults=(FaultSpec("hang", "m88ksim", attempts=99),),
        )
        outcome = run_cell(tiny_cell(), harness)
        assert not outcome.ok
        assert isinstance(outcome.error, CellTimeoutError)
        assert outcome.attempts == 2

    def test_crash_reports_exit_code(self, no_backoff):
        harness = HarnessSettings(
            cell_timeout=60.0, retries=0,
            faults=(FaultSpec("crash", "m88ksim", attempts=99),),
        )
        outcome = run_cell(tiny_cell(), harness)
        assert not outcome.ok
        assert isinstance(outcome.error, CellCrashError)
        assert "86" in str(outcome.error)

    def test_hang_error_from_worker_carries_snapshot(self, tmp_path):
        # SimulationHangError must survive the pipe crossing intact.
        from repro.errors import HangSnapshot
        from repro.harness.executor import _decode_error, _encode_error

        snapshot = HangSnapshot(
            cycle=7, last_retire_cycle=1, retired=0, inflight=3,
            stage_occupancy={"rob": 3}, oldest_instruction="T0 uid=5",
        )
        encoded = _encode_error(SimulationHangError("wedged", snapshot))
        decoded = _decode_error(encoded)
        assert isinstance(decoded, SimulationHangError)
        assert decoded.snapshot.stage_occupancy == {"rob": 3}


def _crash_now() -> None:
    os._exit(86)


def _inherited_state(fd: int) -> tuple:
    """Whether ``fd`` is open here, the SIGTERM handler and the signal
    wakeup fd."""
    try:
        os.fstat(fd)
        is_open = True
    except OSError:
        is_open = False
    return is_open, signal.getsignal(signal.SIGTERM), signal.set_wakeup_fd(-1)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live (not exited, not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestWorkerSpawning:
    def test_worker_drops_inherited_fds_and_signal_handlers(self):
        # What an event loop installs: a SIGTERM handler and a wakeup
        # fd.  A forked worker must neither hold the parent's sockets
        # nor pass a caught signal to the parent's wakeup fd.
        read_end, write_end = os.pipe()
        os.set_blocking(write_end, False)
        listener = socket.socket()
        handler = signal.signal(signal.SIGTERM, lambda *_: None)
        wakeup = signal.set_wakeup_fd(write_end)
        try:
            state = _run_isolated("probe", _inherited_state,
                                  (listener.fileno(),), 30)
        finally:
            signal.set_wakeup_fd(wakeup)
            signal.signal(signal.SIGTERM, handler)
            listener.close()
            os.close(read_end)
            os.close(write_end)
        assert state == (False, signal.SIG_DFL, -1)

    def test_crash_is_not_hidden_by_a_sibling_spawn(self, monkeypatch):
        # Hold a worker's start() open until a sibling worker has been
        # forked by another thread, so the sibling inherits the first
        # worker's write end.  Unless the sibling drops it at once, the
        # crash would surface only when the 3 s sibling exits.
        first_started = threading.Event()
        sibling_started = threading.Event()
        start = multiprocessing.process.BaseProcess.start

        def widened_start(process):
            start(process)
            if threading.current_thread().name == "crasher":
                first_started.set()
                sibling_started.wait(0.5)
            else:
                sibling_started.set()

        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", widened_start)
        seen = {}

        def crasher():
            began = time.monotonic()
            try:
                _run_isolated("crasher", _crash_now, (), None)
            except CellCrashError as error:
                seen["error"] = error
            seen["elapsed"] = time.monotonic() - began

        def sibling():
            first_started.wait(5)
            _run_isolated("sibling", time.sleep, (3.0,), None)

        threads = [threading.Thread(target=crasher, name="crasher"),
                   threading.Thread(target=sibling, name="sibling")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(15)
            assert not thread.is_alive()
        assert isinstance(seen.get("error"), CellCrashError)
        assert "exit code 86" in str(seen["error"])
        assert seen["elapsed"] < 2.0

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="parent-death signal is Linux-only")
    def test_worker_dies_with_its_parent(self, tmp_path):
        # A kill -9'd parent (a campaign or a server) must not leave its
        # forked cell running.
        pid_path = tmp_path / "worker.pid"
        src = Path(__file__).resolve().parent.parent / "src"
        script = (
            "import os, sys, time\n"
            "from repro.harness.executor import _run_isolated\n"
            "def nap(path):\n"
            "    open(path, 'w').write(str(os.getpid()))\n"
            "    time.sleep(60)\n"
            "_run_isolated('nap', nap, (sys.argv[1],), None)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        parent = subprocess.Popen(
            [sys.executable, "-c", script, str(pid_path)], env=env)
        try:
            deadline = time.monotonic() + 30
            while not pid_path.exists() or not pid_path.read_text():
                assert time.monotonic() < deadline, "worker never started"
                assert parent.poll() is None, "parent died at start-up"
                time.sleep(0.05)
            worker = int(pid_path.read_text())
            assert _running(worker)
        finally:
            parent.kill()
            parent.wait(10)
        deadline = time.monotonic() + 5
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(worker), "forked worker outlived its parent"


#: Six cells on three warm keys: a jobs=2 batch runs warmups and cells.
REUSE_CELLS = [
    tiny_cell(workload, config)
    for workload in ("m88ksim", "swim", "compress")
    for config in (BASE, CoreConfig.with_dra(5))
]


@pytest.fixture(scope="module")
def inline_stats():
    """The stats of :data:`REUSE_CELLS` run inline."""
    outcomes = execute_cells(REUSE_CELLS, HarnessSettings(isolate="inline"))
    return [outcome.result.stats for outcome in outcomes]


@pytest.fixture
def forked(monkeypatch):
    """Pids of the processes forked while the test runs."""
    pids = []
    start = multiprocessing.process.BaseProcess.start

    def recorded(process):
        start(process)
        pids.append(process.pid)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recorded)
    return pids


def _assert_reaped(pids) -> None:
    """No forked worker is left running, or unreaped."""
    assert pids
    assert not any(_running(pid) for pid in pids)
    assert not multiprocessing.active_children()


@pytest.mark.usefixtures("no_backoff")
class TestWorkerReuse:
    """A batch's forked workers run one cell after another."""

    def test_batch_forks_at_most_one_worker_per_slot(
        self, forked, inline_stats
    ):
        outcomes = execute_cells(REUSE_CELLS, HarnessSettings(jobs=2))
        assert [o.attempts for o in outcomes] == [1] * len(REUSE_CELLS)
        assert [o.result.stats for o in outcomes] == inline_stats
        # 3 warmups and 6 cells, on at most 2 workers
        assert len(forked) <= 2
        _assert_reaped(forked)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kind", ["crash", "hang", "transient"])
    def test_fault_retires_only_its_worker(
        self, kind, jobs, forked, inline_stats
    ):
        target = REUSE_CELLS[2]
        harness = HarnessSettings(
            jobs=jobs, cell_timeout=3.0 if kind == "hang" else 60.0,
            faults=(FaultSpec(kind, config_label=f"#{target.key[:8]}"),),
        )
        outcomes = execute_cells(REUSE_CELLS, harness)
        assert [o.attempts for o in outcomes] == [1, 1, 2, 1, 1, 1]
        assert [o.result.stats for o in outcomes] == inline_stats
        # one retired worker: one fork beyond the slots (exactly, with
        # one slot)
        if jobs == 1:
            assert len(forked) == 2
        else:
            assert len(forked) <= 3
        _assert_reaped(forked)

    def test_unpicklable_arguments_fail_their_cell(self, forked):
        @dataclasses.dataclass(frozen=True)
        class LocalSettings(ExperimentSettings):
            """Pickle cannot find a class defined in a function."""

        local = Cell("m88ksim", BASE, LocalSettings(
            instructions=250, warmup=2_000, detailed_warmup=80), 0)
        outcomes = execute_cells(
            [local, REUSE_CELLS[2]], HarnessSettings(jobs=2))
        assert isinstance(outcomes[0].error, ConfigError)
        assert "cannot be sent to a worker" in str(outcomes[0].error)
        assert outcomes[0].attempts == 1
        assert outcomes[1].ok
        _assert_reaped(forked)

    def test_unpicklable_work_fails_every_cell(self, monkeypatch, forked):
        attempt = executor_mod._attempt_cell
        monkeypatch.setattr(executor_mod, "_attempt_cell",
                            lambda *args: attempt(*args))
        outcomes = execute_cells(REUSE_CELLS[:3], HarnessSettings(jobs=2))
        assert all(isinstance(o.error, ConfigError) for o in outcomes)
        assert [o.attempts for o in outcomes] == [1, 1, 1]
        _assert_reaped(forked)


@pytest.mark.usefixtures("no_backoff")
class TestCampaignRecovery:
    """The ISSUE acceptance scenario: one hang + one crash, then resume."""

    WORKLOADS = ("m88ksim", "swim", "compress", "gcc")
    FAULTS = (
        FaultSpec("hang", "swim", attempts=99),
        FaultSpec("crash", "gcc", attempts=99),
    )

    def harness(self, cache_dir, faults=()):
        return HarnessSettings(
            cell_timeout=2.0, retries=1,
            cache_dir=str(cache_dir), faults=faults,
        )

    def test_partial_campaign_then_resume(self, tmp_path):
        harness = self.harness(tmp_path, self.FAULTS)
        campaign = run_campaign(
            [(w, BASE) for w in self.WORKLOADS], TINY, harness
        )
        # The campaign completed and reports exactly the two injected
        # failures; healthy cells produced points.
        assert set(
            workload for workload, _ in campaign.points
        ) == {"m88ksim", "compress"}
        kinds = {f.label.split("/")[0]: f.kind for f in campaign.failures}
        assert set(kinds) == {"swim", "gcc"}
        assert kinds["swim"] == "CellTimeoutError"
        assert kinds["gcc"] == "CellCrashError"
        assert all(f.attempts == 2 for f in campaign.failures)
        report = campaign.failure_report()
        assert "swim" in report and "gcc" in report

        # Re-run on the same cache dir with the faults gone: healthy
        # cells come from the cache (no re-execution), only the two
        # failed cells run.
        resumed = self.harness(tmp_path)
        cells = [
            Cell(workload=w, config=BASE, settings=TINY, seed=0)
            for w in self.WORKLOADS
        ]
        outcomes = {o.cell.workload: o for o in execute_cells(cells, resumed)}
        assert all(o.ok for o in outcomes.values())
        assert outcomes["m88ksim"].cached
        assert outcomes["compress"].cached
        assert not outcomes["swim"].cached
        assert not outcomes["gcc"].cached

    def test_resume_disabled_recomputes(self, tmp_path):
        # execute_cells reads the cache (what a re-run on the same cache
        # dir reuses); run_cell never does, so it recomputes a cached
        # cell and rewrites it
        harness = self.harness(tmp_path)
        [first] = execute_cells([tiny_cell()], harness)
        [again] = execute_cells([tiny_cell()], harness)
        forced = run_cell(tiny_cell(), harness)
        assert not first.cached and again.cached and not forced.cached
        assert forced.result.stats == again.result.stats


class TestRunConfigIntegration:
    def test_run_config_raises_classified_errors(self):
        with pytest.raises(WorkloadError):
            run_config("doom3", BASE, TINY)
        bad = ExperimentSettings(instructions=0)
        with pytest.raises(ConfigError):
            run_config("m88ksim", BASE, bad)

    def test_run_config_reads_through_persistent_cache(
        self, tmp_path, monkeypatch
    ):
        harness = HarnessSettings(cache_dir=str(tmp_path))
        first = run_config("m88ksim", BASE, TINY, harness=harness)
        # The point must be rebuilt from disk, not re-simulated.
        calls = []
        from repro.harness import executor as executor_mod
        real = executor_mod._simulate_cell
        monkeypatch.setattr(
            executor_mod, "_simulate_cell",
            lambda cell, **kw: calls.append(cell) or real(cell, **kw),
        )
        second = run_config("m88ksim", BASE, TINY, harness=harness)
        assert second.ipc == first.ipc
        assert calls == []

    def test_recaptured_trace_gives_the_new_result(self, tmp_path):
        # A same-named workload whose content changed is a different
        # cell: neither entry point may return the old trace's result.
        from repro.scenarios import capture_trace

        path = str(tmp_path / "t.trace.gz")
        workload = f"trace:{path}"
        capture_trace("compress", path, 3_000)
        old = run_config(workload, BASE, TINY)
        capture_trace("swim", path, 3_000, seed=3)
        truth = run_cell(tiny_cell(workload=workload),
                         HarnessSettings(isolate="inline"))
        assert truth.ok and truth.result.ipc != old.ipc
        assert run_config(workload, BASE, TINY).ipc == truth.result.ipc
        campaign = run_campaign([(workload, BASE)], TINY)
        assert campaign.point(workload, BASE).ipc == truth.result.ipc


class TestGracefulFigures:
    def test_figure4_marks_failed_cells(self, no_backoff):
        from repro.experiments import run_figure4

        harness = HarnessSettings(
            retries=0, isolate="inline",
            faults=(FaultSpec("crash", "m88ksim", "Base:9_9", attempts=99),),
        )
        result = run_figure4(TINY, workloads=("m88ksim",), harness=harness)
        assert result.rows["m88ksim"][0] == pytest.approx(1.0)
        assert result.rows["m88ksim"][-1] is None
        assert len(result.failures) == 1
        text = result.render()
        assert "n/a" in text
        assert "failed" in text
