"""Tests of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

About a minute: the repetition and attribution tests run real
repetitions in fresh interpreters.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _rep(tmp_path, workload, index, traced=False, plant=()):
    args = argparse.Namespace(workload=workload, seed=5)
    return run.run_rep(ROOT, tmp_path, args, f"rep{index}", traced, plant=plant)


def test_benchmark_json_names_what_run_py_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)


def test_every_workload_expected_values_cover_the_seed_pool():
    expected = json.loads((HERE / "expected.json").read_text())
    assert set(expected) == set(run.WORKLOAD_NAMES)
    pool = len(workloads.SIM_SEEDS)
    assert len(expected["kernel-long"]["cells"]) == len(workloads.KERNEL_CALLS) * pool
    assert len(expected["submit-mixed"]["cells"]) == len(workloads.SUBMIT_MACHINES) * pool
    # seed-0 submit cells are cross-checked against the golden pins
    golden = json.loads((ROOT / "tests" / "golden" / "ipc_numbers.json").read_text())["run"]
    assert golden["workload"] == "int_test" and golden["seed"] == 0
    assert {k: golden[k] for k in workloads.SUBMIT_GEOMETRY} == workloads.SUBMIT_GEOMETRY


def test_submit_sequence_repeats_and_is_seeded():
    import random

    first = workloads.submit_sequence(random.Random(7))
    assert first == workloads.submit_sequence(random.Random(7))
    assert len(first) == workloads.SUBMIT_NEW + workloads.SUBMIT_REPEATS
    assert len(set(first)) == workloads.SUBMIT_NEW


@pytest.mark.parametrize("workload", ["explore-mechanisms", "kernel-long"])
def test_every_repetition_executes_the_same_cells(tmp_path, workload):
    # a second run inside one interpreter would hit runner._CACHE and
    # simulate nothing; fresh interpreters must repeat the work exactly
    reps = [_rep(tmp_path, workload, i) for i in range(2)]
    counts = [len(rep["outputs"]["cells"]) for rep in reps]
    assert counts[0] == counts[1] == reps[0]["outputs"]["cell_count"] > 0
    assert reps[0]["outputs"]["cells"] == reps[1]["outputs"]["cells"]


def test_planted_cache_put_delay_lands_in_cache_put_only(tmp_path):
    # large enough that host noise in the core times (tens of percent
    # on a shared machine) stays well under the tolerance below
    delay = 0.5
    clean = _rep(tmp_path, "explore-mechanisms", 0, traced=True)["layers"]
    planted = _rep(tmp_path, "explore-mechanisms", 1, traced=True,
                   plant=[f"harness.cache_put={delay}"])["layers"]
    puts = clean["core.cells_simulated"]
    added = delay * puts
    assert planted["harness.cache_put_s"] - clean["harness.cache_put_s"] >= 0.95 * added
    for name in ("core.build_s", "core.warmup_s", "core.detailed_s"):
        assert abs(planted[name] - clean[name]) < 0.25 * added, name
    # the sleep sits inside the put span, so run_cell's self time
    # (dispatch) does not absorb it either
    assert planted["harness.dispatch_s"] - clean["harness.dispatch_s"] < 0.25 * added


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        {"id": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "b", "parent": "a", "start": 1.0, "end": 4.0},
        {"id": "c", "parent": "a", "start": 3.0, "end": 6.0},
        {"id": "d", "parent": "b", "start": 1.0, "end": 2.0},
    ]
    own = tracing.self_times(spans)
    assert own == {"a": 5.0, "b": 2.0, "c": 3.0, "d": 1.0}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_percentile(list(range(100)))[0] == 90.0
    assert tracing.tail_percentile(list(range(40)))[0] == 75.0
    assert tracing.tail_percentile([1.0, 2.0, 3.0]) == (100.0, 3.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
