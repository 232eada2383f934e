"""Warm-state reuse: the warm key, snapshot/restore, and batch sharing.

A functional-warmup snapshot may be restored into any cell with the
same warm key.  These tests pin what the key must cover (every
``CoreConfig`` field, classified), how restore refuses a wrong
snapshot, and how :func:`repro.harness.execute_cells` warms once per
shared key without changing any outcome.  The cycle-for-cycle law
(restored-warm == fresh-warm) lives in ``tests/test_verify.py``.
"""

import dataclasses
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro.scenarios
from repro.core import CoreConfig, LoadRecovery
from repro.core.backend import (
    BACKENDS,
    KernelBackend,
    RetireStreamRecorder,
    parse_backend,
)
from repro.core.config import DRAConfig, PortConfig
from repro.core.memdep import MemDepPolicy
from repro.core.pipeline import Simulator
from repro.core.simulator import simulate, warm_snapshot
from repro.errors import ConfigError, TransientCellError, WorkloadError
from repro.experiments import ExperimentSettings
from repro.harness import Cell, FaultSpec, HarnessSettings, ResultCache, execute_cells
from repro.harness import executor as executor_mod
from repro.scenarios import workload_signature
from repro.workloads import workload_profiles

WARMUP = 1_500
TINY = ExperimentSettings(instructions=300, warmup=3_000, detailed_warmup=80)
#: TINY's warmup with a longer window: other cells on TINY's warm keys.
LONGER = dataclasses.replace(TINY, instructions=450)

#: Every ``CoreConfig`` leaf field (nested dataclasses walked) ->
#: (shapes the warmed state, a valid different value).  A field missing
#: here fails the test: classify it before it can alias warm snapshots.
FIELDS = {
    "fetch_width": (False, 4),
    "rename_width": (False, 4),
    "issue_width": (False, 4),
    "retire_width": (False, 4),
    "fetch_depth": (False, 3),
    "dec_iq": (False, 6),
    "iq_ex": (False, 4),
    "rename_offset": (False, 1),
    "rf_read_latency": (False, 2),
    "iq_entries": (False, 64),
    "rob_entries": (False, 128),
    "num_clusters": (False, 4),
    "num_pregs": (False, 512),
    "fb_depth": (False, 7),
    "rf_read_ports": (False, 4),
    "ports.arbitration": (False, "operand_share"),
    "ports.banks": (False, 4),
    "iq_feedback_delay": (False, 2),
    "iq_clear_cycles": (False, 2),
    "branch_feedback_delay": (False, 2),
    "load_fill_wake_lead": (False, 1),
    "load_recovery": (False, LoadRecovery.SSR),
    "ssr_threshold": (False, 2),
    "slotting": (False, "round_robin"),
    "fetch_policy": (False, "round_robin"),
    "memdep.policy": (False, MemDepPolicy.CONSERVATIVE),
    "memdep.store_queue_entries": (False, 16),
    "memdep.predictor_entries": (False, 512),
    "memdep.clear_interval": (False, 10_000),
    "dra.crc_entries": (False, 32),
    "dra.counter_bits": (False, 3),
    "dra.payload_transit": (False, 3),
    "dra.frontend_stall": (False, 2),
    "dra.oracle_crc": (False, True),
    "dra.centralized": (False, True),
    "dra.insertion_policy": (False, "always"),
    "dra.shadow_fb_decrement": (False, True),
    "predictor.kind": (True, "gshare"),
    "predictor.entries": (True, 2048),
    "predictor.history_bits": (True, 10),
    "line_predictor.entries": (True, 512),
    "line_predictor.line_bytes": (True, 64),
    "line_predictor.bubble": (True, 2),
    "btb.entries": (True, 1024),
    "btb.assoc": (True, 2),
    "btb.miss_bubble": (True, 3),
    "hierarchy.l1d.name": (True, "L1D'"),
    "hierarchy.l1d.size_bytes": (True, 32 * 1024),
    "hierarchy.l1d.line_bytes": (True, 32),
    "hierarchy.l1d.assoc": (True, 4),
    "hierarchy.l1d.hit_latency": (True, 2),
    "hierarchy.l1d.banks": (True, 4),
    "hierarchy.l1i.name": (True, "L1I'"),
    "hierarchy.l1i.size_bytes": (True, 32 * 1024),
    "hierarchy.l1i.line_bytes": (True, 32),
    "hierarchy.l1i.assoc": (True, 4),
    "hierarchy.l1i.hit_latency": (True, 2),
    "hierarchy.l1i.banks": (True, 2),
    "hierarchy.l2.name": (True, "L2'"),
    "hierarchy.l2.size_bytes": (True, 512 * 1024),
    "hierarchy.l2.line_bytes": (True, 128),
    "hierarchy.l2.assoc": (True, 4),
    "hierarchy.l2.hit_latency": (True, 10),
    "hierarchy.l2.banks": (True, 2),
    "hierarchy.tlb.entries": (True, 64),
    "hierarchy.tlb.page_bytes": (True, 4096),
    "hierarchy.tlb.miss_latency": (True, 40),
    "hierarchy.memory_latency": (True, 100),
    "hierarchy.bank_conflict_penalty": (True, 2),
}

#: Top-level fields only valid changed together (one issue slot per
#: cluster): perturbing one sets its partner to the same value.
PARTNERS = {"issue_width": "num_clusters", "num_clusters": "issue_width"}

#: Optional sub-configs are populated so their fields are walked too.
FULL_CONFIG = CoreConfig.with_dra(3)


def _leaf_paths(obj, prefix=""):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        path = prefix + f.name
        if dataclasses.is_dataclass(value):
            yield from _leaf_paths(value, path + ".")
        else:
            yield path


def _perturbed(config, path, value):
    head, _, rest = path.partition(".")
    if not rest:
        return dataclasses.replace(config, **{head: value})
    return dataclasses.replace(
        config, **{head: _perturbed(getattr(config, head), rest, value)}
    )


def _key_and_state(config, workload="int_test", seed=0):
    """(warm key, pickled warmed state) of one reference warmup."""
    sim = Simulator(config, workload_profiles(workload), seed=seed)
    key, state = pickle.loads(sim.snapshot_warmup(WARMUP))
    assert key == Simulator.warm_key(
        config, workload_signature(workload), seed, WARMUP
    )
    return key, state


class TestWarmKey:
    def test_classification_covers_every_config_field(self):
        paths = list(_leaf_paths(FULL_CONFIG))
        unclassified = sorted(set(paths) - set(FIELDS))
        assert not unclassified, f"classify these fields: {unclassified}"
        assert not set(FIELDS) - set(paths), "stale entries in FIELDS"
        base_key, base_state = _key_and_state(FULL_CONFIG)
        for path in paths:
            shapes, value = FIELDS[path]
            if path in PARTNERS:
                config = dataclasses.replace(
                    FULL_CONFIG, **{path: value, PARTNERS[path]: value})
            else:
                config = _perturbed(FULL_CONFIG, path, value)
            assert config != FULL_CONFIG, path
            key, state = _key_and_state(config)
            assert (key != base_key) is shapes, path
            assert (state != base_state) is shapes, path

    def test_key_covers_stream_and_simulator_class(self):
        config = CoreConfig.base(3)
        signature = workload_signature("int_test")
        base = Simulator.warm_key(config, signature, 0, WARMUP)
        optimized = BACKENDS["optimized"].simulator_class
        assert base != Simulator.warm_key(
            config, workload_signature("swim"), 0, WARMUP)
        assert base != Simulator.warm_key(config, signature, 1, WARMUP)
        assert base != Simulator.warm_key(config, signature, 0, WARMUP + 1)
        assert base != optimized.warm_key(config, signature, 0, WARMUP)


class TestRestore:
    def test_restored_run_equals_fresh_run(self):
        snapshot = warm_snapshot("int_test", CoreConfig.base(3), warmup=WARMUP)
        config = CoreConfig.with_dra(5, dra=DRAConfig(crc_entries=8))
        run = dict(instructions=500, warmup=WARMUP, detailed_warmup=100)
        fresh = simulate("int_test", config, **run)
        restored = simulate("int_test", config, warm=snapshot, **run)
        assert restored.stats == fresh.stats

    def test_refuses_another_simulator_class(self):
        snapshot = warm_snapshot("int_test", warmup=WARMUP,
                                 backend="reference")
        for backend in ("optimized", "sampled"):
            with pytest.raises(ConfigError, match="warm snapshot"):
                simulate("int_test", instructions=300, warmup=WARMUP,
                         warm=snapshot, backend=backend)

    @pytest.mark.parametrize("change", [
        dict(workload="swim"), dict(seed=1), dict(warmup=WARMUP + 1),
        dict(config=CoreConfig.base(3, btb=dataclasses.replace(
            CoreConfig().btb, entries=1024))),
    ], ids=["workload", "seed", "warmup", "btb"])
    def test_refuses_another_warm_key(self, change):
        snapshot = warm_snapshot("int_test", CoreConfig.base(3), warmup=WARMUP)
        run = dict(workload="int_test", config=CoreConfig.base(3),
                   warmup=WARMUP, seed=0)
        run.update(change)
        with pytest.raises(ConfigError, match="warm snapshot"):
            simulate(instructions=300, warm=snapshot, **run)

    def test_restore_after_detailed_simulation_raises(self):
        snapshot = warm_snapshot("int_test", warmup=WARMUP,
                                 backend="reference")
        sim = Simulator(CoreConfig.base(), workload_profiles("int_test"))
        sim.restore_warmup(snapshot, WARMUP)
        sim.run(100)
        with pytest.raises(RuntimeError, match="precede detailed"):
            sim.restore_warmup(snapshot, WARMUP)


# ---------------------------------------------------------------------------
# Batch sharing in the harness
# ---------------------------------------------------------------------------

#: Cells differing only in loop knobs: one warm key.
KNOB_CONFIGS = (
    CoreConfig.base(3),
    CoreConfig.with_dra(5),
    CoreConfig.base(7, rf_read_ports=4),
    CoreConfig.base(5, load_recovery=LoadRecovery.SSR),
    CoreConfig.base(5, ports=PortConfig(arbitration="operand_share")),
)


def _cells(workloads=("int_test",), settings=TINY):
    return [
        Cell(workload=workload, config=config, settings=settings, seed=0)
        for workload in workloads
        for config in KNOB_CONFIGS
    ]


def _exit_worker(cell):
    os._exit(3)


def _fresh(cell):
    settings = cell.settings
    return simulate(
        cell.workload, cell.config, instructions=settings.instructions,
        warmup=settings.warmup, detailed_warmup=settings.detailed_warmup,
        seed=cell.seed,
    ).stats


def _fresh_run(cell):
    """(CoreStats, retire stream) of ``cell`` warmed afresh."""
    settings = cell.settings
    kernel = parse_backend(settings.backend)
    sim = kernel.simulator_class(
        cell.config, workload_profiles(cell.workload), seed=cell.seed)
    recorder = RetireStreamRecorder()
    recorder.install(sim)
    sim.functional_warmup(settings.warmup)
    stats = kernel.run(sim, settings.instructions,
                       warmup=settings.detailed_warmup)
    return stats, recorder.stream


@pytest.fixture
def warmups(monkeypatch):
    """Counts functional warmups run in this process."""
    calls = []
    real = Simulator.functional_warmup

    def counted(sim, ops_per_thread):
        calls.append(ops_per_thread)
        return real(sim, ops_per_thread)

    monkeypatch.setattr(Simulator, "functional_warmup", counted)
    return calls


@pytest.fixture
def retire_streams(monkeypatch):
    """The retire stream of every simulator a backend builds in this
    process, in build order."""
    streams = []
    build = KernelBackend.build

    def recorded(backend, config, profiles, seed=0):
        sim = build(backend, config, profiles, seed=seed)
        recorder = RetireStreamRecorder()
        recorder.install(sim)
        streams.append(recorder.stream)
        return sim

    monkeypatch.setattr(KernelBackend, "build", recorded)
    return streams


class TestBatchSharing:
    def test_inline_batch_warms_once_per_key(self, warmups):
        cells = _cells(("int_test", "swim")) + [
            Cell(workload="m88ksim", config=CoreConfig.base(3),
                 settings=TINY, seed=0),
        ]
        outcomes = execute_cells(cells, HarnessSettings(isolate="inline"))
        # two shared keys, plus one cell alone on its key
        assert len(warmups) == 3
        for cell, outcome in zip(cells, outcomes):
            assert outcome.ok and outcome.attempts == 1
            assert outcome.result.stats == _fresh(cell), cell.label

    def test_process_batch_warms_once_in_a_worker(self, monkeypatch):
        # every job a worker runs is sent through _Worker.run
        sent = []
        real = executor_mod._Worker.run

        def recorded(worker, what, work, args, timeout):
            sent.append(what)
            return real(worker, what, work, args, timeout)

        monkeypatch.setattr(executor_mod._Worker, "run", recorded)
        cells = _cells()
        outcomes = execute_cells(cells, HarnessSettings(jobs=2))
        assert [w for w in sent if w.startswith("warmup")] == [
            f"warmup for {cells[0].label}"]
        assert len(sent) == 1 + len(cells)
        for cell, outcome in zip(cells, outcomes):
            assert outcome.ok
            assert outcome.result.stats == _fresh(cell), cell.label

    def test_verified_batch_with_shared_key_passes(self):
        outcomes = execute_cells(
            _cells(), HarnessSettings(isolate="inline", verify=True)
        )
        assert all(outcome.ok for outcome in outcomes)

    def test_cached_batch_warms_nothing_and_reads_each_entry_once(
        self, tmp_path, warmups, monkeypatch
    ):
        harness = HarnessSettings(isolate="inline", cache_dir=str(tmp_path))
        cells = _cells()
        first = execute_cells(cells + cells[:2], harness)
        assert len(warmups) == 1
        # every file the cache reads, cell entries and warm entries alike
        reads = []
        real_read = ResultCache._read
        monkeypatch.setattr(
            ResultCache, "_read",
            lambda cache, path: reads.append(path) or real_read(cache, path),
        )
        again = execute_cells(cells + cells[:2], harness)
        assert len(warmups) == 1
        cache = ResultCache(tmp_path)
        assert sorted(reads) == sorted(cache.path(cell.key) for cell in cells)
        assert all(outcome.cached for outcome in again)
        assert [o.result.stats for o in again] == [o.result.stats for o in first]

    def test_keys_are_computed_once_per_batch(self, monkeypatch):
        counts = Counter()

        def counted(name, real):
            return lambda *args: counts.update([name]) or real(*args)

        monkeypatch.setattr(executor_mod, "cell_key",
                            counted("cell key", executor_mod.cell_key))
        monkeypatch.setattr(executor_mod, "_warm_key",
                            counted("warm key", executor_mod._warm_key))
        monkeypatch.setattr(
            repro.scenarios, "workload_signature",
            counted("signature", repro.scenarios.workload_signature))
        cells = _cells(("int_test", "swim"))
        outcomes = execute_cells(cells + cells[:3], HarnessSettings(jobs=2))
        assert all(outcome.ok for outcome in outcomes)
        assert counts == {"cell key": 10, "warm key": 10, "signature": 2}

    def test_failed_warmup_changes_no_outcome(self, monkeypatch, no_backoff):
        # a cell fault on attempt 1 must still be attempt 1 of that
        # cell, and the cells must warm themselves
        faults = (FaultSpec("transient", config_label=KNOB_CONFIGS[1].label,
                            attempts=1),)
        harness = HarnessSettings(isolate="inline", faults=faults)
        baseline = execute_cells(_cells(), harness)

        def broken(cell):
            raise TransientCellError("warmup lost")

        monkeypatch.setattr(executor_mod, "_warm_cell", broken)
        outcomes = execute_cells(_cells(), harness)
        assert [o.attempts for o in outcomes] == [o.attempts for o in baseline]
        assert [o.attempts for o in outcomes] == [1, 2, 1, 1, 1]
        assert all(o.ok for o in outcomes)
        assert [o.result.stats for o in outcomes] == [
            o.result.stats for o in baseline]

    def test_missing_trace_fails_its_cells_without_raising(self, tmp_path):
        # an unreadable trace has no warm key: its cells fail on their
        # own, classified, while the rest of the batch shares warmups
        missing = f"trace:{tmp_path / 'missing.trace'}"
        cells = _cells() + [
            Cell(workload=missing, config=config, settings=TINY, seed=0)
            for config in KNOB_CONFIGS[:2]
        ]
        outcomes = execute_cells(cells, HarnessSettings(isolate="inline"))
        assert all(outcome.ok for outcome in outcomes[:-2])
        for outcome in outcomes[-2:]:
            assert not outcome.ok
            assert isinstance(outcome.error, WorkloadError)
            assert outcome.attempts == 1

    def test_crashed_warm_worker_leaves_cells_to_warm_themselves(
        self, monkeypatch
    ):
        # a module-level function: a worker receives its work pickled
        monkeypatch.setattr(executor_mod, "_warm_cell", _exit_worker)
        cells = _cells()[:3]
        outcomes = execute_cells(cells, HarnessSettings(jobs=2, retries=0))
        for cell, outcome in zip(cells, outcomes):
            assert outcome.ok and outcome.attempts == 1
            assert outcome.result.stats == _fresh(cell), cell.label


# ---------------------------------------------------------------------------
# Warm snapshots in the result cache
# ---------------------------------------------------------------------------

#: Runs a batch on a cache directory in a fresh interpreter and pickles
#: (warmups run, each cell's CoreStats, each built simulator's retire
#: stream) to the output path.
CHILD_BATCH = """
import pickle, sys
from repro.core.backend import KernelBackend, RetireStreamRecorder
from repro.core.pipeline import Simulator
from repro.harness import HarnessSettings, execute_cells

cache_dir, cells_path, out_path = sys.argv[1:]
warmups, streams = [], []
warm, build = Simulator.functional_warmup, KernelBackend.build

def counted(sim, ops):
    warmups.append(ops)
    return warm(sim, ops)

def recorded(backend, *args, **kwargs):
    sim = build(backend, *args, **kwargs)
    recorder = RetireStreamRecorder()
    recorder.install(sim)
    streams.append(recorder.stream)
    return sim

Simulator.functional_warmup = counted
KernelBackend.build = recorded
with open(cells_path, "rb") as handle:
    cells = pickle.load(handle)
outcomes = execute_cells(
    cells, HarnessSettings(isolate="inline", cache_dir=cache_dir))
with open(out_path, "wb") as handle:
    pickle.dump((len(warmups), [o.result.stats for o in outcomes], streams),
                handle)
"""


class TestWarmCache:
    """Snapshots stored under their warm key serve later batches."""

    def harness(self, tmp_path):
        return HarnessSettings(isolate="inline", cache_dir=str(tmp_path))

    def test_later_batch_restores_instead_of_warming(
        self, tmp_path, warmups, retire_streams
    ):
        execute_cells(_cells(), self.harness(tmp_path))
        assert len(warmups) == 1
        # new cells on the stored key, and a lone one, run no warm job
        cells = _cells(settings=LONGER)
        lone = Cell("int_test", KNOB_CONFIGS[0],
                    dataclasses.replace(TINY, instructions=200), 0)
        retire_streams.clear()
        outcomes = execute_cells(cells, self.harness(tmp_path))
        [alone] = execute_cells([lone], self.harness(tmp_path))
        assert len(warmups) == 1
        streams = list(retire_streams)
        fresh = [_fresh_run(cell) for cell in cells + [lone]]
        assert [o.result.stats for o in outcomes + [alone]] == [
            stats for stats, _ in fresh]
        assert streams == [stream for _, stream in fresh]

    def test_second_process_restores_instead_of_warming(self, tmp_path):
        execute_cells(_cells(), self.harness(tmp_path / "cache"))
        cells = _cells(settings=LONGER)
        cells_path, out_path = tmp_path / "cells.pkl", tmp_path / "out.pkl"
        cells_path.write_bytes(pickle.dumps(cells))
        src = Path(__file__).resolve().parent.parent / "src"
        subprocess.run(
            [sys.executable, "-c", CHILD_BATCH, str(tmp_path / "cache"),
             str(cells_path), str(out_path)],
            env=dict(os.environ, PYTHONPATH=str(src)), check=True, timeout=120,
        )
        warmed, batch_stats, streams = pickle.loads(out_path.read_bytes())
        assert warmed == 0
        fresh = [_fresh_run(cell) for cell in cells]
        assert batch_stats == [stats for stats, _ in fresh]
        assert streams == [stream for _, stream in fresh]

    @pytest.mark.parametrize("damage", ["corrupt", "other-version"])
    def test_damaged_entry_is_a_miss_and_warms_again(
        self, tmp_path, warmups, damage
    ):
        execute_cells(_cells(), self.harness(tmp_path))
        [path] = tmp_path.glob("warm/*/*.pkl")
        cache = ResultCache(tmp_path)
        warm_key = path.stem
        snapshot = cache.get_warm(warm_key)
        assert snapshot is not None
        if damage == "corrupt":
            path.write_bytes(path.read_bytes()[:100])
        else:
            path.write_bytes(pickle.dumps(
                {"version": -1, "key": warm_key, "snapshot": snapshot}))
        assert cache.get_warm(warm_key) is None
        # warm reads are not counted as cell hits or misses
        assert (cache.hits, cache.misses) == (0, 0)
        cells = _cells(settings=LONGER)
        outcomes = execute_cells(cells, self.harness(tmp_path))
        assert len(warmups) == 2
        assert [o.result.stats for o in outcomes] == [
            _fresh(cell) for cell in cells]
        assert cache.get_warm(warm_key) is not None  # stored again
