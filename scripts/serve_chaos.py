#!/usr/bin/env python
"""Chaos smoke test for the campaign service, against the real CLI.

Unlike ``tests/test_serve.py`` (in-process servers), this drives
``python -m repro serve`` subprocesses exactly as an operator would, and
walks the service through its five headline robustness claims:

1. **dedup** — two concurrent clients submitting the same cell get the
   same result from exactly one simulation.
2. **crash retry** — an injected worker crash (``REPRO_FAULTS``) is
   retried by the harness on the default ``--retries``: the job runs
   once, takes two attempts, and the client gets its result; once with
   forked cells, once ``--isolate inline``.
3. **watchdog kill** — a hung cell is killed by the watchdog and retried
   in the same run; the client gets its result, and the server stays
   up instead of taking the kill for a signal of its own.
4. **kill -9 + resume** — SIGKILL a server while a forked cell is in
   flight and more jobs are accepted but unfinished: no cell of the
   killed server survives it, a new server binds the same port, and
   ``loopsim serve --resume`` replays the journal and finishes every
   job into the cache.
5. **SIGTERM drain** — a terminated server exits 0 with a clean ``drain``
   marker as its final journal record.

Servers run on serve's default isolation (every cell forked, under the
watchdog) unless a scenario says otherwise.  The orphan check reads
``/proc``, so the script needs Linux.  Exit code 0 means every scenario
held.  Used by the ``serve-smoke`` CI job; runnable locally with
``python scripts/serve_chaos.py``.
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.harness import ResultCache  # noqa: E402
from repro.serve import CampaignClient, build_cell, make_cell_spec  # noqa: E402
from repro.serve.journal import last_drain, pending_jobs, read_records  # noqa: E402

TINY = dict(instructions=300, warmup=2_000, detailed_warmup=80)
WORKLOAD = "int_test"
LISTEN_RE = re.compile(r"listening on [\d.]+:(\d+)")


class Failure(Exception):
    pass


class Server:
    """One ``loopsim serve`` subprocess."""

    def __init__(self, workdir: Path, name: str, faults: str = "",
                 extra_args=(), isolate: str = "", port: int = 0):
        self.workdir = workdir
        self.journal = workdir / "journal.jsonl"
        self.cache_dir = workdir / "cache"
        self.log = workdir / f"{name}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        if faults:
            env["REPRO_FAULTS"] = faults
        else:
            env.pop("REPRO_FAULTS", None)
        command = [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port),
            "--journal", str(self.journal),
            "--cache-dir", str(self.cache_dir),
            *(("--isolate", isolate) if isolate else ()),
            *extra_args,
        ]
        self._log_handle = self.log.open("w")
        self.process = subprocess.Popen(
            command, env=env, cwd=str(workdir),
            stdout=self._log_handle, stderr=subprocess.STDOUT,
        )
        self.port = self._wait_for_port()

    def _wait_for_port(self, timeout: float = 30.0) -> int:
        deadline = time.time() + timeout
        while time.time() < deadline:
            if self.process.poll() is not None:
                raise Failure(
                    f"server died at startup:\n{self.log.read_text()}")
            match = LISTEN_RE.search(self.log.read_text())
            if match:
                return int(match.group(1))
            time.sleep(0.05)
        raise Failure(f"server never listened:\n{self.log.read_text()}")

    def client(self, **kwargs) -> CampaignClient:
        return CampaignClient(port=self.port, **kwargs)

    def metric(self, name: str) -> float:
        with self.client() as client:
            return client.stats()["metrics"].get(f"serve.{name}", 0)

    def sigterm(self) -> None:
        self.process.send_signal(signal.SIGTERM)

    def sigkill(self) -> None:
        self.process.kill()

    def wait(self, timeout: float = 30.0) -> int:
        try:
            code = self.process.wait(timeout)
        finally:
            self._log_handle.close()
        return code

    def stop(self) -> None:
        """Best-effort cleanup for failure paths."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(10)
        if not self._log_handle.closed:
            self._log_handle.close()


def check(condition: bool, what: str) -> None:
    if not condition:
        raise Failure(what)


def _stat(pid: int) -> list:
    """``/proc/PID/stat`` after the command name: state, ppid, ...;
    empty once the process is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return []
    return text.rsplit(")", 1)[1].split()


def running(pid: int) -> bool:
    """Whether ``pid`` is alive (neither gone nor a zombie)."""
    fields = _stat(pid)
    return bool(fields) and fields[0] != "Z"


def children(pid: int) -> list:
    """The running processes whose parent is ``pid``."""
    return [int(entry.name) for entry in Path("/proc").iterdir()
            if entry.name.isdigit() and running(int(entry.name))
            and _stat(int(entry.name))[1:2] == [str(pid)]]


def wait_for(condition, what: str, timeout: float = 30.0) -> None:
    deadline = time.time() + timeout
    while not condition():
        check(time.time() < deadline, f"timed out waiting for {what}")
        time.sleep(0.05)


def scenario_dedup(root: Path) -> None:
    """Two concurrent identical submits -> exactly one simulation."""
    workdir = root / "dedup"
    workdir.mkdir()
    # The slow fault holds the one execution open so the submits overlap.
    server = Server(workdir, "serve", faults="slow|*|*|*|1|1.0")
    try:
        replies = []
        lock = threading.Lock()

        def submit():
            with server.client() as client:
                reply = client.submit(WORKLOAD, want_result=False, **TINY)
            with lock:
                replies.append(reply)

        first = threading.Thread(target=submit)
        second = threading.Thread(target=submit)
        first.start()
        time.sleep(0.4)  # first submit is running and sleeping
        second.start()
        first.join(60)
        second.join(60)
        check(len(replies) == 2 and all(r.ok for r in replies),
              f"dedup submits failed: {replies}")
        check(replies[0].ipc == replies[1].ipc,
              "coalesced submits disagree on ipc")
        check(any(r.dedup for r in replies), "second submit did not dedup")
        executed = server.metric("executed")
        check(executed == 1, f"expected 1 execution, saw {executed}")
        print(f"  dedup: 2 clients, 1 execution, ipc={replies[0].ipc:.4f}")
    finally:
        server.stop()


def scenario_crash_retry(root: Path, isolate: str = "") -> None:
    """Worker crash -> retried by the harness within the job's one run."""
    workdir = root / f"crash-{isolate or 'default'}"
    workdir.mkdir()
    server = Server(workdir, "serve", faults="crash|*|*|*|1",
                    isolate=isolate)
    try:
        with server.client() as client:
            reply = client.submit(WORKLOAD, want_result=False, **TINY)
        check(reply.ok, f"crash-faulted submit failed: {reply.error_message}")
        check(reply.attempts == 2, f"expected 2 attempts, saw {reply.attempts}")
        executed = server.metric("executed")
        check(executed == 1, f"expected 1 execution, saw {executed}")
        print(f"  crash ({isolate or 'forked'}): retried by the harness "
              f"(attempts={reply.attempts}), result delivered "
              f"ipc={reply.ipc:.4f}")
    finally:
        server.stop()


def scenario_hang_kill(root: Path) -> None:
    """Hung cell -> killed by the watchdog, retried, server stays up."""
    workdir = root / "hang"
    workdir.mkdir()
    server = Server(workdir, "serve", faults="hang|*|*|*|1",
                    extra_args=("--cell-timeout", "1.5"))
    try:
        began = time.time()
        with server.client(timeout=30, retries=0) as client:
            reply = client.submit(WORKLOAD, want_result=False, **TINY)
        took = time.time() - began
        check(reply.ok, f"hung job not delivered: {reply}")
        check(reply.attempts == 2, f"expected 2 attempts, saw {reply.attempts}")
        check(server.process.poll() is None,
              "the watchdog's kill took the server down")
        executed = server.metric("executed")
        check(executed == 1, f"expected 1 execution, saw {executed}")
        check(last_drain(server.journal) is None,
              "the watchdog's kill drained the server")
        print(f"  hang: killed and retried in its run, delivered in "
              f"{took:.1f}s, server still up")
    finally:
        server.stop()


def scenario_kill9_resume(root: Path) -> tuple:
    """SIGKILL mid-cell with a backlog -> no orphan, the port rebinds,
    and --resume finishes every accepted job."""
    workdir = root / "resume"
    workdir.mkdir()
    # Every first attempt naps far longer than the test: nothing can
    # finish before the kill.
    server = Server(workdir, "serve-a", faults="slow|*|*|*|1|600",
                    extra_args=("--workers", "1"))
    specs = [make_cell_spec(WORKLOAD, seed=seed, **TINY) for seed in range(5)]
    keys = [build_cell(spec).key for spec in specs]
    try:
        with server.client() as client:
            for spec in specs:
                reply = client.submit_spec(spec, wait=False)
                check(reply.ok, "submit not accepted")
        # kill only once a cell is in flight in its forked worker
        wait_for(lambda: any(record["rec"] == "running"
                             for record in read_records(server.journal)),
                 "a running journal record")
        wait_for(lambda: children(server.process.pid), "a forked cell")
        workers = children(server.process.pid)
        server.sigkill()
        code = server.wait()
        check(code != 0, "SIGKILL'd server exited cleanly?!")
        wait_for(lambda: not any(running(pid) for pid in workers),
                 f"the killed server's workers {workers} to die", 10.0)
    finally:
        server.stop()
    pending = pending_jobs(server.journal)
    check(len(pending) == 5,
          f"journal lost accepted jobs: {len(pending)}/5 pending")
    check(last_drain(server.journal) is None, "dirty shutdown left a drain marker")

    # the killed server's port: a surviving worker would still hold it
    resumed = Server(workdir, "serve-b", port=server.port,
                     extra_args=("--resume", "--workers", "2"))
    try:
        deadline = time.time() + 120
        while time.time() < deadline:
            check(resumed.process.poll() is None, "resumed server died")
            if resumed.metric("completed") >= 5:
                break
            time.sleep(0.25)
        check(resumed.metric("resumed") == 5,
              f"replayed {resumed.metric('resumed')}/5 jobs")
        check(resumed.metric("completed") >= 5,
              f"resume finished {resumed.metric('completed')}/5 jobs")
        cache = ResultCache(server.cache_dir)
        missing = [key[:8] for key in keys if cache.get(key) is None]
        check(not missing, f"cache missing resumed cells: {missing}")
        print(f"  kill -9: {len(workers)} in-flight worker(s) died with "
              f"the server, port {server.port} rebound; 5 accepted jobs "
              "journaled, replayed and finished after --resume")
    except BaseException:
        resumed.stop()
        raise
    return resumed, server.journal


def scenario_sigterm_drain(resumed: Server, journal: Path) -> None:
    """SIGTERM -> exit 0 with a final drain record."""
    resumed.sigterm()
    code = resumed.wait(30)
    check(code == 0, f"drained server exited {code}")
    log = resumed.log.read_text()
    check("drained, bye" in log, f"no drain farewell in log:\n{log}")
    records = read_records(journal)
    check(records and records[-1]["rec"] == "drain",
          "journal does not end with a drain record")
    print("  SIGTERM: clean drain, exit 0, drain record journaled")


def main() -> int:
    started = time.time()
    with tempfile.TemporaryDirectory(prefix="serve-chaos-") as tmp:
        root = Path(tmp)
        print("serve chaos: dedup under concurrency")
        scenario_dedup(root)
        print("serve chaos: worker crash -> harness retry")
        scenario_crash_retry(root)
        scenario_crash_retry(root, isolate="inline")
        print("serve chaos: hung cell -> watchdog kill")
        scenario_hang_kill(root)
        print("serve chaos: kill -9 -> journal resume")
        resumed, journal = scenario_kill9_resume(root)
        print("serve chaos: SIGTERM -> graceful drain")
        try:
            scenario_sigterm_drain(resumed, journal)
        finally:
            resumed.stop()
    print(f"serve chaos: all scenarios held ({time.time() - started:.1f}s)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as failure:
        print(f"serve chaos: FAILED: {failure}", file=sys.stderr)
        sys.exit(1)
