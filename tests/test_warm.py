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

import pytest

from repro.core import CoreConfig, LoadRecovery
from repro.core.backend import get_backend
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
        optimized = get_backend("optimized").simulator_class
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


def _cells(workloads=("int_test",)):
    return [
        Cell(workload=workload, config=config, settings=TINY, seed=0)
        for workload in workloads
        for config in KNOB_CONFIGS
    ]


def _fresh(cell):
    return simulate(
        cell.workload, cell.config, instructions=TINY.instructions,
        warmup=TINY.warmup, detailed_warmup=TINY.detailed_warmup,
        seed=cell.seed,
    ).stats


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
        isolated = []
        real = executor_mod._run_isolated

        def recorded(what, work, args, timeout):
            isolated.append(what)
            return real(what, work, args, timeout)

        monkeypatch.setattr(executor_mod, "_run_isolated", recorded)
        cells = _cells()
        outcomes = execute_cells(cells, HarnessSettings(jobs=2))
        assert [w for w in isolated if w.startswith("warmup")] == [
            f"warmup for {cells[0].label}"]
        assert len(isolated) == 1 + len(cells)
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
        reads = []
        real_get = ResultCache.get
        monkeypatch.setattr(
            ResultCache, "get",
            lambda cache, key: reads.append(key) or real_get(cache, key),
        )
        monkeypatch.setattr(
            ResultCache, "__contains__",
            lambda cache, key: pytest.fail("extra 'in cache' probe"),
        )
        again = execute_cells(cells + cells[:2], harness)
        assert len(warmups) == 1
        assert sorted(reads) == sorted(cell.key for cell in cells)
        assert all(outcome.cached for outcome in again)
        assert [o.result.stats for o in again] == [o.result.stats for o in first]

    def test_failed_warmup_changes_no_outcome(self, monkeypatch):
        # a cell fault on attempt 1 must still be attempt 1 of that
        # cell, and the cells must warm themselves
        faults = (FaultSpec("transient", config_label=KNOB_CONFIGS[1].label,
                            attempts=1),)
        harness = HarnessSettings(isolate="inline", backoff_base=0.0,
                                  faults=faults)
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
        monkeypatch.setattr(executor_mod, "_warm_cell",
                            lambda cell: os._exit(3))
        cells = _cells()[:3]
        outcomes = execute_cells(cells, HarnessSettings(jobs=2, retries=0))
        for cell, outcome in zip(cells, outcomes):
            assert outcome.ok and outcome.attempts == 1
            assert outcome.result.stats == _fresh(cell), cell.label
