"""Tests for the campaign service (:mod:`repro.serve`).

Unit layer: wire protocol, journal replay, job resolution.
End-to-end layer: a real :class:`CampaignServer` on a loopback socket
driven by the synchronous :class:`CampaignClient`, including the chaos
scenarios the subsystem exists for — dedup coalescing, first-in
first-out dispatch, 429 load shedding from the one bounded job queue,
finished jobs freed, worker crashes retried by the harness
mid-campaign, injected disconnects survived by client retry, and
``kill -9`` (abort) followed by a journal-replay resume that loses no
accepted job.  Most servers
here run cells inline (``serve_settings``); ``TestForkedCells`` covers
serve's default, where every cell is forked under the watchdog.

Simulation cells are tiny so the suite stays fast.
"""

import asyncio
import gc
import json
import multiprocessing
import socket
import threading
import time

import pytest

from repro.core import CoreConfig
from repro.core.simulator import simulate
from repro.errors import ConfigError
from repro.experiments import ExperimentSettings
from repro.harness import Cell, FaultSpec, HarnessSettings, ResultCache
from repro.serve import (
    CampaignClient,
    CampaignServer,
    Journal,
    ServeSettings,
    ServiceError,
    ServiceUnavailableError,
    build_cell,
    compact,
    make_cell_spec,
    pending_jobs,
    read_records,
)
from repro.serve.journal import last_drain
from repro.serve.protocol import decode, encode, result_from_wire, result_to_wire
from repro.serve import server as server_module
from repro.serve.server import CELL_TIMEOUT_S, DONE, Job

TINY = dict(instructions=200, warmup=2_000, detailed_warmup=80)
BASE = CoreConfig.base()

# every server here retries a failed cell without the backoff sleep
pytestmark = pytest.mark.usefixtures("no_backoff")


def tiny_cell(workload="m88ksim", seed=0) -> Cell:
    settings = ExperimentSettings(seeds=(seed,), **TINY)
    return Cell(workload=workload, config=BASE, settings=settings, seed=seed)


def run(coro):
    return asyncio.run(coro)


# --------------------------------------------------------------------------
# Wire protocol
# --------------------------------------------------------------------------

class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"type": "submit", "cell": {"workload": "swim"}, "id": 3}
        assert decode(encode(message)) == message

    def test_decode_rejects_junk(self):
        with pytest.raises(ConfigError):
            decode(b"not json\n")
        with pytest.raises(ConfigError):
            decode(b"[1, 2]\n")  # not an object
        with pytest.raises(ConfigError):
            decode(b'{"no": "type"}\n')

    def test_spec_round_trip_reconstructs_cell_key(self):
        # The client-side spec and the server-side rebuild must agree on
        # the content address — that is the dedup/idempotency contract.
        spec = make_cell_spec("m88ksim", seed=3, **TINY)
        cell = build_cell(spec)
        assert cell.key == tiny_cell(seed=3).key
        assert build_cell(json.loads(json.dumps(spec))).key == cell.key

    def test_spec_overrides_change_the_key(self):
        plain = build_cell(make_cell_spec("swim", **TINY))
        widened = build_cell(make_cell_spec(
            "swim", overrides={"rob_entries": 96}, **TINY))
        assert plain.key != widened.key
        assert widened.config.rob_entries == 96

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            build_cell("not a dict")
        with pytest.raises(ConfigError):
            build_cell({"seed": 0})  # no workload
        with pytest.raises(ConfigError):
            build_cell(make_cell_spec("swim", overrides={"nope": 1}))
        with pytest.raises(ConfigError):
            # dra_overrides only mean something for a DRA config
            build_cell({"workload": "swim",
                        "config": {"dra": False,
                                   "dra_overrides": {"crc_entries": 4}}})

    def test_dra_spec_builds_dra_config(self):
        cell = build_cell(make_cell_spec(
            "swim", dra=True, rf=5, dra_overrides={"crc_entries": 32},
            **TINY))
        assert cell.config.dra is not None
        assert cell.config.dra.crc_entries == 32

    def test_result_wire_round_trip(self):
        result = simulate("m88ksim", BASE, seed=0, **TINY)
        wire = result_to_wire(result, want_pickle=True)
        assert wire["ipc"] == result.ipc
        assert wire["summary"] == {
            k: float(v) for k, v in result.stats.summary().items()}
        back = result_from_wire(wire)
        assert back.ipc == result.ipc
        assert back.stats.summary() == result.stats.summary()
        # Without the pickle flag the payload (the expensive part) is
        # omitted and the round trip yields no object.
        slim = result_to_wire(result, want_pickle=False)
        assert "payload" not in slim
        assert result_from_wire(slim) is None


# --------------------------------------------------------------------------
# Journal
# --------------------------------------------------------------------------

class TestJournal:
    def accepted(self, job, **extra):
        record = {"rec": "accepted", "job": job, "key": "k" + job,
                  "cell": make_cell_spec("m88ksim", **TINY)}
        record.update(extra)
        return record

    def test_append_and_read(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(self.accepted("j-1"))
            journal.append({"rec": "done", "job": "j-1", "ok": True})
        records = read_records(path)
        assert [r["rec"] for r in records] == ["accepted", "done"]
        assert all("t" in r for r in records)

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(self.accepted("j-1"))
        with path.open("a") as handle:
            handle.write('{"rec": "accepted", "job": "j-2", "ke')  # crash
        records = read_records(path)
        assert len(records) == 1
        assert pending_jobs(path)[0]["job"] == "j-1"

    def test_pending_ignores_leases_and_respects_done(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(self.accepted("j-1"))
            journal.append(self.accepted("j-2"))
            journal.append({"rec": "leased", "job": "j-1", "worker": "w0"})
            journal.append({"rec": "leased", "job": "j-2", "worker": "w1"})
            journal.append({"rec": "done", "job": "j-1", "ok": True})
        pending = pending_jobs(path)
        # j-2 was running at the crash: still pending (the run died
        # with the process); j-1 is retired.  Older journals wrote
        # ``leased`` where this server writes ``running``; both replay.
        assert [r["job"] for r in pending] == ["j-2"]

    def test_compact_keeps_only_backlog(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            for n in range(5):
                journal.append(self.accepted(f"j-{n}"))
            for n in range(4):
                journal.append({"rec": "done", "job": f"j-{n}", "ok": True})
        assert compact(path) == 1
        records = read_records(path)
        assert [r["job"] for r in records] == ["j-4"]

    def test_missing_journal_reads_empty(self, tmp_path):
        assert read_records(tmp_path / "nope.jsonl") == []
        assert pending_jobs(tmp_path / "nope.jsonl") == []
        assert compact(tmp_path / "nope.jsonl") == 0

    def test_last_drain(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(self.accepted("j-1"))
        assert last_drain(path) is None
        with Journal(path) as journal:
            journal.append({"rec": "drain"})
        assert last_drain(path) is not None


# --------------------------------------------------------------------------
# Job
# --------------------------------------------------------------------------

class TestJob:
    def test_job_resolution_is_idempotent(self):
        async def scenario():
            job = Job(id="j-1", cell=tiny_cell(), spec={})
            future = job.subscribe()
            job.resolve("first", DONE)
            job.resolve("second", DONE)
            late = job.subscribe()  # post-terminal subscription
            return await future, await late

        assert run(scenario()) == ("first", "first")


# --------------------------------------------------------------------------
# End-to-end: a live server on loopback
# --------------------------------------------------------------------------

class ServerThread:
    """A CampaignServer running its own event loop in a daemon thread."""

    def __init__(self, settings: ServeSettings):
        self.settings = settings
        self.server = None
        self.loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self.server = CampaignServer(self.settings)
        self.loop.run_until_complete(self.server.start())
        self._ready.set()
        self.loop.run_forever()
        self.loop.close()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        assert self._ready.wait(15), "server failed to start"
        return self

    def __exit__(self, *exc) -> None:
        try:
            if not self.server._drained:
                self.call(self.server.drain())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(15)

    @property
    def port(self) -> int:
        return self.server.port

    def call(self, coro, timeout: float = 60.0):
        """Run a coroutine on the server loop from the test thread."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def counter(self, name: str) -> int:
        return self.server.registry.counter(f"serve.{name}").value


def serve_settings(tmp_path, faults=(), **overrides) -> ServeSettings:
    harness = HarnessSettings(
        isolate="inline", retries=2,
        cache_dir=str(tmp_path / "cache"), faults=tuple(faults),
    )
    defaults = dict(port=0, workers=2,
                    journal_path=str(tmp_path / "journal.jsonl"),
                    harness=harness)
    defaults.update(overrides)
    return ServeSettings(**defaults)


def raw_submit(port, spec, priority="batch", wait=False):
    """One submit over a raw socket, returning the first reply line.
    The server ignores ``priority``; it is sent as older clients did."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(encode({"type": "submit", "id": 1, "cell": spec,
                             "priority": priority, "wait": wait}))
        reader = sock.makefile("rb")
        return json.loads(reader.readline())


class TestServerEndToEnd:
    def test_submit_result_is_bit_identical_to_direct_simulate(self, tmp_path):
        with ServerThread(serve_settings(tmp_path)) as st:
            with CampaignClient(port=st.port) as client:
                reply = client.submit("m88ksim", seed=0, **TINY)
        direct = simulate("m88ksim", BASE, seed=0, **TINY)
        assert reply.ok and not reply.cached and not reply.dedup
        assert reply.ipc == direct.ipc
        assert reply.summary == {
            k: float(v) for k, v in direct.stats.summary().items()}
        assert reply.result.ipc == direct.ipc
        assert reply.result.stats.summary() == direct.stats.summary()

    def test_second_submit_hits_cache(self, tmp_path):
        with ServerThread(serve_settings(tmp_path)) as st:
            with CampaignClient(port=st.port) as client:
                first = client.submit("m88ksim", **TINY)
                second = client.submit("m88ksim", **TINY)
            assert st.counter("executed") == 1
        assert first.ok and not first.cached
        assert second.ok and second.cached
        assert second.ipc == first.ipc

    def test_fresh_submit_reads_the_cache_once(self, tmp_path):
        # intake reads the cache; the worker's run_cell only writes it,
        # and a job has no shared warmup to store
        with ServerThread(serve_settings(tmp_path)) as st:
            with CampaignClient(port=st.port) as client:
                reply = client.submit("m88ksim", **TINY)
            assert reply.ok and not reply.cached
            assert (st.server.cache.hits, st.server.cache.misses) == (0, 1)
        assert not list((tmp_path / "cache").glob("warm/*/*.pkl"))

    def test_concurrent_identical_submits_coalesce(self, tmp_path):
        # Hold the one execution open with a slow fault so both clients
        # overlap; exactly one simulation must run.
        settings = serve_settings(
            tmp_path, faults=[FaultSpec("slow", attempts=1, delay_s=0.8)])
        replies = []

        def submit():
            with CampaignClient(port=st.port) as client:
                replies.append(client.submit("m88ksim", **TINY))

        with ServerThread(settings) as st:
            threads = [threading.Thread(target=submit) for _ in range(2)]
            threads[0].start()
            time.sleep(0.25)  # first submit is in flight (sleeping)
            threads[1].start()
            for thread in threads:
                thread.join(30)
            assert st.counter("executed") == 1
            assert st.counter("dedup_coalesced") == 1
        assert len(replies) == 2
        assert all(reply.ok for reply in replies)
        assert replies[0].ipc == replies[1].ipc
        assert any(reply.dedup for reply in replies)

    def test_full_queue_sheds_429_with_retry_after(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(server_module, "QUEUE_DEPTH", 1)
        settings = serve_settings(
            tmp_path, workers=1,
            faults=[FaultSpec("slow", attempts=9, delay_s=1.5)])
        with ServerThread(settings) as st:
            # c1 occupies the worker (sleeping), c2 fills the queue.
            assert raw_submit(
                st.port, make_cell_spec("m88ksim", seed=1, **TINY)
            )["type"] == "accepted"
            time.sleep(0.3)
            assert raw_submit(
                st.port, make_cell_spec("m88ksim", seed=2, **TINY)
            )["type"] == "accepted"
            shed = raw_submit(
                st.port, make_cell_spec("m88ksim", seed=3, **TINY))
            assert shed["type"] == "rejected"
            assert shed["code"] == 429
            assert shed["retry_after"] > 0
            # One queue for every priority: an interactive submit is
            # shed too.
            assert raw_submit(
                st.port, make_cell_spec("m88ksim", seed=4, **TINY),
                priority="interactive",
            )["type"] == "rejected"
            assert st.counter("rejected_full") == 2

    def test_jobs_run_in_arrival_order_whatever_their_priority(
            self, tmp_path):
        settings = serve_settings(
            tmp_path, workers=1,
            faults=[FaultSpec("slow", seed="1", attempts=1, delay_s=0.6)])
        with ServerThread(settings) as st:
            # j-1 holds the one worker; j-2 (batch) then j-3
            # (interactive) wait behind it.
            for seed, priority in ((1, "batch"), (2, "batch"),
                                   (3, "interactive")):
                assert raw_submit(
                    st.port, make_cell_spec("m88ksim", seed=seed, **TINY),
                    priority=priority,
                )["type"] == "accepted"
                time.sleep(0.15)
            st.call(st.server.drain(), timeout=30)
            assert st.counter("completed") == 3
        running = [r["job"] for r in read_records(settings.journal_path)
                   if r["rec"] == "running"]
        assert running == ["j-1", "j-2", "j-3"]

    def test_finished_jobs_are_not_retained(self, tmp_path):
        settings = serve_settings(tmp_path, workers=2)
        specs = [make_cell_spec("m88ksim", seed=seed, **TINY)
                 for seed in range(6)]
        keys = {build_cell(spec).key for spec in specs}
        with ServerThread(settings) as st:
            with CampaignClient(port=st.port) as client:
                for spec in specs:
                    assert client.submit_spec(spec, want_result=False).ok
            assert st.counter("completed") == 6
            gc.collect()
            retained = [obj for obj in gc.get_objects()
                        if isinstance(obj, Job) and obj.key in keys]
            # Each worker holds the last job it ran until its next get().
            assert all(job.terminal for job in retained)
            assert len(retained) <= settings.workers

    def test_worker_crash_is_retried_by_the_harness(self, tmp_path):
        # The harness's own retry loop absorbs a crash fault; the job
        # completes on its one run.
        settings = serve_settings(
            tmp_path, faults=[FaultSpec("crash", attempts=1)])
        with ServerThread(settings) as st:
            with CampaignClient(port=st.port) as client:
                reply = client.submit("m88ksim", **TINY)
            assert st.counter("completed") == 1
        assert reply.ok
        assert reply.attempts == 2  # crash, then clean

    def test_persistent_crash_fails_after_one_run(self, tmp_path):
        # A crash on every attempt: the job runs once, and fails once
        # the harness's 1 + retries attempts are spent.
        harness = HarnessSettings(
            isolate="inline", retries=1,
            cache_dir=str(tmp_path / "cache"),
            faults=(FaultSpec("crash", attempts=99),),
        )
        settings = serve_settings(tmp_path, harness=harness)
        with ServerThread(settings) as st:
            with CampaignClient(port=st.port) as client:
                reply = client.submit("m88ksim", **TINY)
            assert st.counter("executed") == 1
            assert st.counter("failed") == 1
            records = [r["rec"] for r in read_records(
                st.settings.journal_path)]
        assert not reply.ok
        assert reply.error_kind == "CellCrashError"
        assert reply.attempts == 2
        assert records.count("running") == 1
        assert "requeued" not in records

    def test_injected_disconnect_survived_by_client_retry(self, tmp_path):
        settings = serve_settings(
            tmp_path, faults=[FaultSpec("disconnect", attempts=1)])
        with ServerThread(settings) as st:
            with CampaignClient(port=st.port, retry_delay=0.05) as client:
                reply = client.submit("m88ksim", **TINY)
            assert st.counter("disconnects_injected") == 1
            assert st.counter("executed") == 1
        direct = simulate("m88ksim", BASE, seed=0, **TINY)
        assert reply.ok
        assert reply.reconnects >= 1
        # The retry rode the cache/dedup path to the same bytes.
        assert reply.ipc == direct.ipc

    def test_disconnect_targets_one_cell_by_key_prefix(self, tmp_path):
        # a key prefix picks out one of two cells that share a config
        # label; the other is delivered on the first try
        target = f"#{tiny_cell(seed=1).key[:8]}"
        settings = serve_settings(tmp_path, faults=[
            FaultSpec("disconnect", config_label=target, attempts=1)])
        with ServerThread(settings) as st:
            with CampaignClient(port=st.port, retry_delay=0.05) as client:
                replies = [client.submit("m88ksim", seed=seed, **TINY)
                           for seed in (0, 1)]
            assert st.counter("disconnects_injected") == 1
        assert all(reply.ok for reply in replies)
        assert replies[0].reconnects == 0
        assert replies[1].reconnects >= 1

    def test_invalid_specs_get_error_replies(self, tmp_path):
        with ServerThread(serve_settings(tmp_path)) as st:
            with CampaignClient(port=st.port) as client:
                with pytest.raises(ServiceError):
                    client.submit("m88ksim", overrides={"nope": 1}, **TINY)

    def test_wrong_json_types_get_error_replies(self, tmp_path):
        # int() and dict() of a list, an object or null raise TypeError;
        # the server must answer with an error and keep the connection.
        bad_specs = [
            {"workload": "m88ksim", "config": {"rf": [1]}},
            {"workload": "m88ksim", "config": {"overrides": [1]}},
            {"workload": "m88ksim", "instructions": None},
        ]
        with ServerThread(serve_settings(tmp_path)) as st:
            for spec in bad_specs:
                with socket.create_connection(("127.0.0.1", st.port),
                                              timeout=10) as sock, \
                        sock.makefile("rb") as reader:
                    sock.sendall(encode({"type": "submit", "id": 1,
                                         "cell": spec}))
                    reply = json.loads(reader.readline() or b"null")
                    assert reply and reply["type"] == "error", spec
                    sock.sendall(encode({"type": "health"}))
                    health = json.loads(reader.readline() or b"null")
                    assert health and health["type"] == "health", spec
            assert st.counter("accepted") == 0

    def test_unreadable_trace_gets_a_failure_reply(self, tmp_path):
        missing = f"trace:{tmp_path / 'missing.trace'}"
        with ServerThread(serve_settings(tmp_path)) as st:
            with CampaignClient(port=st.port) as client:
                reply = client.submit(missing, **TINY)
            assert st.counter("failed") == 1
        assert not reply.ok
        assert reply.error_kind == "TraceError"
        assert reply.attempts == 1

    def test_health_status_stats_endpoints(self, tmp_path):
        with ServerThread(serve_settings(tmp_path)) as st:
            with CampaignClient(port=st.port) as client:
                client.submit("m88ksim", **TINY)
                health = client.health()
                status = client.status()
                stats = client.stats()
        assert health["ok"] and not health["draining"]
        assert health["protocol"] == 1
        assert health["jobs"] == 1
        assert health["running"] == 0
        assert status["jobs"] == {"queued": 0, "running": 0, "done": 1,
                                  "failed": 0}
        assert status["queued"] == 0
        metrics = stats["metrics"]
        assert metrics["serve.submitted"] == 1
        assert metrics["serve.completed"] == 1
        assert metrics["serve.service_ms.count"] == 1.0
        assert stats["cache"]["misses"] >= 1

    def test_drain_finishes_accepted_work_then_rejects(self, tmp_path):
        settings = serve_settings(
            tmp_path, workers=1,
            faults=[FaultSpec("slow", seed="0", attempts=1, delay_s=0.6)])
        with ServerThread(settings) as st:
            port = st.port
            accepted = raw_submit(
                port, make_cell_spec("m88ksim", seed=0, **TINY))
            assert accepted["type"] == "accepted"
            time.sleep(0.15)  # job running, worker sleeping in the fault
            # two more jobs wait in the queue behind it
            for seed in (1, 2):
                assert raw_submit(
                    port, make_cell_spec("m88ksim", seed=seed, **TINY)
                )["type"] == "accepted"
            st.call(st.server.drain(), timeout=30)
            assert st.counter("completed") == 3
            journal_path = st.settings.journal_path
        records = read_records(journal_path)
        assert records[-1]["rec"] == "drain"
        done = [r["job"] for r in records if r["rec"] == "done" and r["ok"]]
        assert done == ["j-1", "j-2", "j-3"]
        assert last_drain(journal_path) is not None
        # The listener is gone: new submits cannot connect.
        with pytest.raises(ServiceUnavailableError):
            CampaignClient(port=port, retries=0).submit("m88ksim", **TINY)

    def test_submit_while_draining_rejected_503(self, tmp_path):
        with ServerThread(serve_settings(tmp_path)) as st:
            st.server._draining = True
            reply = raw_submit(st.port, make_cell_spec("m88ksim", **TINY))
            st.server._draining = False
        assert reply["type"] == "rejected"
        assert reply["code"] == 503


def forked_settings(tmp_path, faults=(), retries=0, cell_timeout=None,
                    **overrides) -> ServeSettings:
    """``serve_settings`` on serve's default isolation."""
    harness = HarnessSettings(
        retries=retries, cell_timeout=cell_timeout,
        cache_dir=str(tmp_path / "cache"), faults=tuple(faults),
    )
    return serve_settings(tmp_path, harness=harness, **overrides)


class TestForkedCells:
    """Serve arms the harness watchdog at ``CELL_TIMEOUT_S`` unless the
    harness sets ``cell_timeout``, so ``auto`` isolation forks every
    cell."""

    def test_hung_cell_is_killed_and_released(self, tmp_path):
        # Without the watchdog a forked hang is waited on forever and
        # its worker never comes back.  With no retries the killed cell
        # fails, and its worker serves the next submit.
        settings = forked_settings(
            tmp_path, faults=[FaultSpec("hang", seed="0", attempts=1)],
            cell_timeout=1.5)
        with ServerThread(settings) as st:
            try:
                with CampaignClient(port=st.port, timeout=10,
                                    retries=0) as client:
                    hung = client.submit("m88ksim", seed=0, **TINY)
                    began = time.monotonic()
                    after = client.submit("m88ksim", seed=1, **TINY)
                    after_s = time.monotonic() - began
            finally:
                # a wedged fork would otherwise block the drain for good
                for child in multiprocessing.active_children():
                    child.kill()
            assert st.counter("executed") == 2
        assert not hung.ok
        assert hung.error_kind == "CellTimeoutError"  # killed by the watchdog
        assert after.ok
        assert after_s < 5.0

    def test_hung_cell_is_retried_in_the_same_run(self, tmp_path):
        # Default harness retries: the watchdog kills the hung attempt
        # after 1.5 s and the retry succeeds in the same run, while the
        # other worker serves a second client.
        settings = forked_settings(
            tmp_path, faults=[FaultSpec("hang", seed="0", attempts=1)],
            retries=2, cell_timeout=1.5)
        seen = {}

        def second_client():
            time.sleep(0.2)  # the hung cell is running by then
            began = time.monotonic()
            with CampaignClient(port=st.port, timeout=10) as client:
                seen["reply"] = client.submit("m88ksim", seed=1, **TINY)
            seen["took"] = time.monotonic() - began

        with ServerThread(settings) as st:
            other = threading.Thread(target=second_client)
            other.start()
            with CampaignClient(port=st.port, timeout=15,
                                retries=0) as client:
                hung = client.submit("m88ksim", seed=0, **TINY)
            other.join(15)
            assert not other.is_alive()
            executed = st.counter("executed")
        assert hung.ok and hung.attempts == 2
        assert seen["reply"].ok and seen["took"] < 1.0
        assert executed == 2

    def test_slow_cell_inside_the_watchdog_completes(self, tmp_path):
        # Every attempt takes over 1 s, inside the 1.8 s watchdog: the
        # cell finishes on its first attempt.
        settings = forked_settings(
            tmp_path, faults=[FaultSpec("slow", attempts=99, delay_s=1.0)],
            cell_timeout=1.8)
        with ServerThread(settings) as st:
            with CampaignClient(port=st.port, timeout=15,
                                retries=0) as client:
                reply = client.submit("m88ksim", **TINY)
            executed = st.counter("executed")
        assert reply.ok and reply.attempts == 1
        assert executed == 1

    def test_cells_fork_by_default(self, tmp_path):
        settings = forked_settings(
            tmp_path, faults=[FaultSpec("crash", attempts=1)])
        with ServerThread(settings) as st:
            with CampaignClient(port=st.port) as client:
                reply = client.submit("m88ksim", **TINY)
        assert not reply.ok
        assert reply.error_kind == "CellCrashError"
        assert "worker died (exit code 86)" in reply.error_message

    def test_dropped_delivery_is_not_held_open_by_a_forked_cell(
            self, tmp_path):
        # The second client's 3.5 s cell is forked while the first
        # client's connection is open, so that cell's worker holds a
        # copy of the socket.  The first client's delivery is dropped;
        # it must see EOF and retry at once, not when that cell exits.
        settings = forked_settings(tmp_path, faults=[
            FaultSpec("disconnect", seed="1", attempts=1),
            FaultSpec("slow", seed="1", attempts=1, delay_s=0.5),
            FaultSpec("slow", seed="2", attempts=1, delay_s=3.5),
        ])
        seen = {}

        def dropped():
            began = time.monotonic()
            with CampaignClient(port=st.port, retry_delay=0.05) as client:
                seen["reply"] = client.submit("m88ksim", seed=1, **TINY)
            seen["took"] = time.monotonic() - began

        def slow():
            with CampaignClient(port=st.port) as client:
                client.submit("m88ksim", seed=2, **TINY)

        with ServerThread(settings) as st:
            threads = [threading.Thread(target=dropped),
                       threading.Thread(target=slow)]
            threads[0].start()
            time.sleep(0.2)  # the first cell is running and sleeping
            threads[1].start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        assert seen["reply"].ok and seen["reply"].reconnects == 1
        assert seen["took"] < 2.0

    def test_inline_opt_out_runs_cells_in_process(self, tmp_path):
        harness = HarnessSettings(
            isolate="inline", retries=0, cache_dir=str(tmp_path / "cache"),
            faults=(FaultSpec("crash", attempts=1),),
        )
        settings = serve_settings(tmp_path, harness=harness)
        with ServerThread(settings) as st:
            with CampaignClient(port=st.port) as client:
                reply = client.submit("m88ksim", **TINY)
        assert not reply.ok
        assert reply.error_kind == "CellCrashError"
        assert "injected crash fault" in reply.error_message

    def test_explicit_cell_timeout_wins_over_the_default(self, tmp_path):
        # The hang is killed at the harness's 0.5 s budget, not the
        # 360 s default, and the harness retry succeeds.
        harness = HarnessSettings(
            cell_timeout=0.5, retries=1,
            cache_dir=str(tmp_path / "cache"),
            faults=(FaultSpec("hang", attempts=1),),
        )
        settings = serve_settings(tmp_path, harness=harness)
        assert CampaignServer(settings).harness.cell_timeout == 0.5
        assert CampaignServer(
            forked_settings(tmp_path)
        ).harness.cell_timeout == CELL_TIMEOUT_S == 360.0
        with ServerThread(settings) as st:
            with CampaignClient(port=st.port, timeout=15,
                                retries=0) as client:
                reply = client.submit("m88ksim", **TINY)
        assert reply.ok
        assert reply.attempts == 2


class TestAbortAndResume:
    """kill -9 (abort) then ``--resume``: no accepted job is lost."""

    def test_resume_replays_accepted_jobs(self, tmp_path):
        slow = FaultSpec("slow", attempts=1, delay_s=8.0)
        settings = serve_settings(tmp_path, workers=1, faults=[slow])
        specs = [make_cell_spec("m88ksim", seed=seed, **TINY)
                 for seed in range(4)]
        keys = [build_cell(spec).key for spec in specs]
        with ServerThread(settings) as st:
            for spec in specs:
                assert raw_submit(st.port, spec)["type"] == "accepted"
            time.sleep(0.2)  # first job running and wedged in the fault
            st.call(st.server.abort(), timeout=30)
            st.server._drained = True  # skip the graceful exit path
        journal_path = settings.journal_path
        pending = pending_jobs(journal_path)
        assert len(pending) == 4  # nothing was finished, nothing lost
        assert last_drain(journal_path) is None  # dirty shutdown

        resumed = serve_settings(tmp_path, workers=2, resume=True)
        with ServerThread(resumed) as st:
            assert st.counter("resumed") == 4
            deadline = time.time() + 60
            while time.time() < deadline and st.server.inflight:
                time.sleep(0.05)
            assert not st.server.inflight, "resumed jobs did not finish"
            assert st.counter("completed") == 4
        cache = ResultCache(tmp_path / "cache")
        direct = simulate("m88ksim", BASE, seed=2, **TINY)
        for key in keys:
            assert cache.get(key) is not None
        assert cache.get(keys[2]).ipc == direct.ipc
        # The resumed journal retires every replayed job.
        assert pending_jobs(journal_path) == []

    def test_resume_completes_a_cached_job_without_running_it(self, tmp_path):
        # The run finished into the cache, but its done record was lost
        # with the process: replay answers the job from the cache.
        spec = make_cell_spec("m88ksim", **TINY)
        cell = build_cell(spec)
        ResultCache(tmp_path / "cache").put(
            cell.key, simulate("m88ksim", BASE, seed=0, **TINY))
        settings = serve_settings(tmp_path, resume=True)
        with Journal(settings.journal_path) as journal:
            journal.append({"rec": "accepted", "job": "j-1", "key": cell.key,
                            "cell": spec})
        with ServerThread(settings) as st:
            deadline = time.time() + 30
            while time.time() < deadline and st.server.inflight:
                time.sleep(0.05)
            assert st.counter("resumed") == 1
            assert st.counter("completed") == 1
            assert st.counter("cache_hits") == 1
            assert st.counter("executed") == 0
        records = read_records(settings.journal_path)
        assert [r["rec"] for r in records] == ["accepted", "done", "drain"]
        assert records[1]["ok"] and records[1]["cached"]

    def test_resume_skips_unreplayable_records(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        with Journal(journal_path) as journal:
            journal.append({"rec": "accepted", "job": "j-1", "key": "k",
                            "priority": "batch",
                            "cell": {"workload": "no_such_workload_v9"}})
            journal.append({"rec": "accepted", "job": "j-2", "key": "k2",
                            "priority": "batch", "cell": "garbage"})
        settings = serve_settings(tmp_path, resume=True,
                                  journal_path=str(journal_path))
        with ServerThread(settings) as st:
            # The poison records are retired, not replayed forever.
            deadline = time.time() + 30
            while time.time() < deadline and st.server.inflight:
                time.sleep(0.05)
            resumed = st.counter("resumed")
        # j-1 builds a Cell (workload names resolve at simulation time)
        # and fails fast at execution; j-2 cannot even build.
        assert resumed <= 1
        assert pending_jobs(journal_path) == []


class TestChaosCampaign:
    """The acceptance scenario: a 20-cell campaign under active chaos
    completes with results bit-identical to direct ``simulate()``."""

    WORKLOADS = ("m88ksim", "swim", "compress", "gcc")
    SEEDS = (0, 1, 2, 3, 4)
    FAULTS = (
        # Every seed-0 cell crashes once, every seed-1 cell flakes once,
        # every seed-2 cell is slowed; delivery of seed-3 results drops
        # the connection once.
        FaultSpec("crash", seed="0", attempts=1),
        FaultSpec("transient", seed="1", attempts=1),
        FaultSpec("slow", seed="2", attempts=1, delay_s=0.05),
        FaultSpec("disconnect", seed="3", attempts=1),
    )

    def test_twenty_cell_campaign_bit_identical(self, tmp_path):
        settings = serve_settings(tmp_path, workers=2, faults=self.FAULTS)
        cells = [(w, s) for w in self.WORKLOADS for s in self.SEEDS]
        replies = {}
        lock = threading.Lock()

        def drive(assigned):
            with CampaignClient(port=st.port, retry_delay=0.05) as client:
                for workload, seed in assigned:
                    reply = client.submit(workload, seed=seed,
                                          want_result=False, **TINY)
                    with lock:
                        replies[(workload, seed)] = reply

        with ServerThread(settings) as st:
            threads = [
                threading.Thread(target=drive, args=(cells[n::4],))
                for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert st.counter("disconnects_injected") >= 1
            journal_path = st.settings.journal_path
        assert len(replies) == 20
        assert all(reply.ok for reply in replies.values())
        for workload, seed in cells:
            direct = simulate(workload, BASE, seed=seed, **TINY)
            assert replies[(workload, seed)].ipc == direct.ipc, \
                f"{workload}/seed{seed} diverged under chaos"
        # Clean shutdown after a chaotic life.
        assert last_drain(journal_path) is not None
