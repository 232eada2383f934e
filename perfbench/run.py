"""The repository benchmark: one workload, timed end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kernel-long --seed 1 --seconds 36 --trace 0

Workloads: explore-mechanisms, kernel-long, submit-mixed (see
perfbench/README.md).  Each repetition runs in a fresh interpreter
with fresh cache and store directories (``rep.py``); repetitions repeat
until ``--seconds`` is spent (two at least), after a few set-up-only
probes.  Every repetition's simulated cells are checked against
``expected.json`` (and ``tests/golden/ipc_numbers.json`` where a cell
is pinned there).

``--trace 0`` prints the end-to-end metrics.  The bounded times
(``*_ref_s``) are scaled to a reference host speed measured by a
calibration loop around each repetition, because the shared host's
speed drifts by tens of percent over minutes; the raw times are printed
beside them.  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics, the
tracing overhead and the time no layer span accounts for.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import tail_percentile  # noqa: E402

WORKLOAD_NAMES = ("explore-mechanisms", "kernel-long", "submit-mixed")

END_TO_END = {
    "wall_ref_s": "s",
    "cpu_ref_s": "s",
    "sim_kinst_per_ref_s": "kinst/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Time of ``rep.calibration_s``'s loop on a quiet host.  A repetition
#: whose loop took longer ran on a slower (shared, contended) host; its
#: ``*_ref`` times are scaled by REFERENCE / measured, i.e. expressed at
#: this speed.  Any fixed value works; it only sets the scale.
CALIBRATION_REFERENCE_S = 0.14

PER_LAYER = {
    "core.build_s": "s",
    "core.warmup_s": "s",
    "core.warmup_kops_per_s": "kops/s",
    "core.detailed_s": "s",
    "core.detailed_kinst_per_s": "kinst/s",
    "core.cells_simulated": "count",
    "core.cycles": "cycles",
    "core.ipc": "inst/cycle",
    "core.reissues": "count",
    "core.port_stalls": "count",
    "dra.operand_miss_rate": "ratio",
    "memory.l1d_miss_rate": "ratio",
    "branch.mispredict_rate": "ratio",
    "harness.cell_p50_s": "s",
    "harness.cell_tail_s": "s",
    "harness.dispatch_s": "s",
    "harness.cache_get_s": "s",
    "harness.cache_hits": "count",
    "harness.cache_misses": "count",
    "harness.cache_put_s": "s",
    "harness.cache_bytes_written": "bytes",
    "harness.metrics_put_s": "s",
    "harness.attempts": "count",
    "experiments.campaign_s": "s",
    "experiments.self_s": "s",
    "explore.prune_s": "s",
    "explore.rung_s": "s",
    "explore.cells_per_rung": "count",
    "explore.frontier_s": "s",
    "explore.store_s": "s",
    "explore.spent_instructions": "count",
    "serve.service_p50_ms": "ms",
    "serve.service_tail_ms": "ms",
    "serve.overhead_s": "s",
    "serve.cache_hits": "count",
    "serve.dedup_coalesced": "count",
    "serve.executed": "count",
    "serve.rejected_full": "count",
    "serve.requeued": "count",
    "analysis.render_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.unaccounted_share": "ratio",
}

#: set-up-only interpreters started before the timed repetitions
SETUP_PROBES = 3
MIN_REPS = 2
REP_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark could not run here (nothing to print)."""


def run_rep(root: Path, workdir: Path, args, name: str, traced: bool,
            setup_only: bool = False, plant=()) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; returns its record."""
    rep_dir = workdir / name
    out = workdir / f"{name}.json"
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env["PYTHONPATH"] = str(root / "src")
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(rep_dir), "--out", str(out),
        "--trace", "1" if traced else "0",
    ]
    if setup_only:
        command.append("--setup-only")
    for item in plant:
        command += ["--plant", item]
    spawned = time.monotonic()
    completed = subprocess.run(
        command + ["--spawned-at", repr(spawned)], cwd=root, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=REP_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise BenchmarkError(
            f"repetition {name} exited {completed.returncode}:\n"
            f"{completed.stderr[-3000:]}"
        )
    record = json.loads(out.read_text())
    record["traced"] = traced
    shutil.rmtree(rep_dir, ignore_errors=True)
    return record


def check_rep(name: str, rep: Dict[str, Any], expected: Dict[str, Any],
              golden: Dict[str, Any]) -> List[str]:
    """Problems with one repetition's outputs (empty when correct)."""
    problems = []
    outputs = rep["outputs"]
    want = expected[name]
    cells = outputs["cells"]
    if len(cells) != outputs["cell_count"]:
        problems.append(f"{len(cells)} cells came back, {outputs['cell_count']} expected")
    for label, summary in sorted(cells.items()):
        got = [int(summary["retired"]), int(summary["cycles"])]
        pinned = want["cells"].get(label)
        if pinned is None:
            problems.append(f"{label}: no expected value recorded")
        elif got != pinned:
            problems.append(f"{label}: (retired, cycles) {got} != expected {pinned}")
    for label, pin in outputs.get("golden", {}).items():
        golden_cell = golden["cells"][pin]
        got = cells.get(label)
        if got is None or [int(got["retired"]), int(got["cycles"]), int(got["reissues"])] != [
                golden_cell["retired"], golden_cell["cycles"], golden_cell["total_reissues"]]:
            problems.append(f"{label}: differs from golden pin {pin}")
    for key, value in outputs["checks"].items():
        if want["checks"].get(key) != value:
            problems.append(f"{key}: {value!r} != expected {want['checks'].get(key)!r}")
    if outputs["failed"]:
        problems.append(f"{outputs['failed']} of {outputs['attempted']} failed")
    return problems


def simulated_stats(cells: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """The simulated core.* statistics, aggregated over the cells a
    repetition simulated (in label order, so they repeat exactly)."""
    rows = [cells[label] for label in sorted(cells)]

    def mean(key):
        return statistics.fmean(row[key] for row in rows)

    return {
        "core.cycles": sum(row["cycles"] for row in rows),
        "core.ipc": mean("ipc"),
        "core.reissues": sum(row["reissues"] for row in rows),
        "core.port_stalls": sum(row["port_stalls"] for row in rows),
        "dra.operand_miss_rate": mean("operand_miss_rate"),
        "memory.l1d_miss_rate": mean("load_l1_miss_rate"),
        "branch.mispredict_rate": mean("branch_mispredict_rate"),
    }


def serve_metrics(outputs: Dict[str, Any]) -> Dict[str, float]:
    """serve.* from the stats endpoint and the client's replies."""
    stats = outputs.get("serve")
    if stats is None:
        return {name: 0.0 for name in PER_LAYER if name.startswith("serve.")}
    executed = [lat for lat, cached, dedup in outputs["submits"] if not (cached or dedup)]
    service_s = stats["serve.service_ms.mean"] * stats["serve.service_ms.count"] / 1e3
    return {
        "serve.service_p50_ms": stats["serve.service_ms.p50"],
        "serve.service_tail_ms": stats["serve.service_ms.p90"],
        "serve.overhead_s": (sum(executed) - service_s) / max(1, len(executed)),
        "serve.cache_hits": stats["serve.cache_hits"],
        "serve.dedup_coalesced": stats["serve.dedup_coalesced"],
        "serve.executed": stats["serve.executed"],
        "serve.rejected_full": stats["serve.rejected_full"],
        "serve.requeued": stats["serve.requeued"],
    }


def median_of(reps, key):
    return statistics.median(rep[key] for rep in reps)


def end_to_end(reps, setups) -> Dict[str, float]:
    """The bounded metrics, plus the raw times they are scaled from."""
    def med(value):
        return statistics.median(value(rep) for rep in reps)

    def scale(rep):
        return CALIBRATION_REFERENCE_S / rep["calibration_s"]

    def kinst(rep):
        return sum(c["retired"] for c in rep["outputs"]["cells"].values()) / 1e3

    return {
        "wall_ref_s": med(lambda r: r["wall_s"] * scale(r)),
        "cpu_ref_s": med(lambda r: r["cpu_s"] * scale(r)),
        "sim_kinst_per_ref_s": med(lambda r: kinst(r) / (r["wall_s"] * scale(r))),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
        "setup_s": statistics.median(setups),
        "wall_s": med(lambda r: r["wall_s"]),
        "cpu_s": med(lambda r: r["cpu_s"]),
        "sim_kinst_per_s": med(lambda r: kinst(r) / r["wall_s"]),
        "calibration_s": med(lambda r: r["calibration_s"]),
    }


def per_layer(traced, untraced) -> Dict[str, float]:
    metrics = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    metrics.update(simulated_stats(traced[0]["outputs"]["cells"]))
    metrics["explore.spent_instructions"] = traced[0]["outputs"].get("spent_instructions", 0)
    serve = [serve_metrics(rep["outputs"]) for rep in traced]
    for name in serve[0]:
        metrics[name] = statistics.median(s[name] for s in serve)
    metrics["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    golden_path = root / "tests" / "golden" / "ipc_numbers.json"
    if not (root / "src" / "repro" / "__init__.py").is_file() or not golden_path.is_file():
        print("perfbench: run from the root of a loopsim checkout "
              "(src/repro and tests/golden are missing here)", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    golden = json.loads(golden_path.read_text())

    workdir = root / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups = [
            run_rep(root, workdir, args, f"setup{i}", traced=False, setup_only=True)["setup_s"]
            for i in range(SETUP_PROBES)
        ]
        reps: List[Dict[str, Any]] = []
        started = time.monotonic()
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(run_rep(root, workdir, args, f"rep{len(reps)}", traced))
            elapsed = time.monotonic() - started
            if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break
    except (BenchmarkError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it
    setups += [rep["setup_s"] for rep in reps]

    problems = []
    for index, rep in enumerate(reps):
        problems += [f"rep {index}: {p}" for p in check_rep(args.workload, rep, expected, golden)]
    first = reps[0]["outputs"]["cells"]
    for index, rep in enumerate(reps[1:], 1):
        if rep["outputs"]["cells"] != first:
            problems.append(f"rep {index}: simulated statistics differ from rep 0"
                            + (" (traced vs untraced)" if rep["traced"] != reps[0]["traced"] else ""))
    attempted = sum(rep["outputs"]["attempted"] for rep in reps)
    failed = sum(rep["outputs"]["failed"] for rep in reps)

    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    print(f"perfbench {args.workload} seed={args.seed}: {len(untraced)} untraced + "
          f"{len(traced)} traced repetition(s), {len(setups)} set-ups, "
          f"{len(first)} simulated cells per repetition")
    print("  wall_s per repetition: " + " ".join(
        f"{rep['wall_s']:.3f}{'t' if rep['traced'] else ''}" for rep in reps))
    if args.trace:
        metrics = per_layer(traced, untraced)
        names = PER_LAYER
    else:
        metrics = end_to_end(untraced, setups)
        names = END_TO_END
    for name, unit in names.items():
        print(f"  {name:28s} {metrics[name]:14.6f} {unit}")
    if not args.trace:
        print(f"  measured at this host's speed (calibration loop "
              f"{metrics['calibration_s']:.4f} s against {CALIBRATION_REFERENCE_S} s):")
        for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("sim_kinst_per_s", "kinst/s")):
            print(f"  {name:28s} {metrics[name]:14.6f} {unit}")
    submits = [lat for rep in untraced for lat, _, _ in rep["outputs"].get("submits", ())]
    if submits and not args.trace:
        tail_p, tail = tail_percentile(submits)
        print(f"  {'submit_p50_s':28s} {statistics.median(submits):14.6f} s")
        print(f"  {'submit_tail_s':28s} {tail:14.6f} s   (p{tail_p:g} of {len(submits)} submits)")
    print(f"  error_rate {failed}/{attempted} = {failed / attempted:.4f}")
    print("  the simulator is not validated against hardware; "
          "no error figure is given")
    if problems:
        print("output check FAILED:")
        for problem in problems[:40]:
            print(f"  {problem}")
    else:
        print(f"output check: every cell of {len(reps)} repetition(s) matches "
              "expected.json and the golden pins it overlaps")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
