"""Regenerate ``expected.json``: the (retired, cycles) of every cell a
benchmark run can simulate, plus the explore frontier checks.

Run from the checkout root after an intentional change to simulated
timing (never to make a speed change pass)::

    PYTHONPATH=src python3 perfbench/record_expected.py [workload ...]

It takes a few minutes: every workload (or the ones named) is run once
per simulation seed of the pool (``workloads.SIM_SEEDS``).
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as w  # noqa: E402


def _pairs(cells):
    return {
        label: [int(s["retired"]), int(s["cycles"])]
        for label, s in sorted(cells.items())
    }


def record_explore() -> dict:
    """Run the exploration once for a bench seed mapping to each sim seed."""
    cells, checks, covered = {}, {}, set()
    seed = 0
    while len(covered) < len(w.SIM_SEEDS):
        sim_seed = random.Random(seed).choice(w.SIM_SEEDS)
        if sim_seed not in covered:
            covered.add(sim_seed)
            scratch = Path.cwd() / ".perfbench"
            scratch.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                workload = w.ExploreMechanisms(seed, Path(tmp))
                workload.setup()
                workload.run()
                out = workload.outputs()
                workload.teardown()
            assert not out["failed"] and len(out["cells"]) == out["cell_count"]
            cells.update(_pairs(out["cells"]))
            checks.update(out["checks"])
            print(f"explore-mechanisms: sim seed {sim_seed}: {len(out['cells'])} cells")
        seed += 1
    return {"cells": cells, "checks": checks}


def record_kernel() -> dict:
    cells = {}
    for workload, kind, rf, instructions in w.KERNEL_CALLS:
        config = w._config(kind, rf)
        for seed in w.SIM_SEEDS:
            result = w.simulate(workload, config, instructions=instructions,
                              warmup=w.KERNEL_WARMUP, seed=seed)
            label = w.kernel_label(workload, config, instructions, seed)
            cells[label] = [result.stats.retired, result.stats.cycles]
    print(f"kernel-long: {len(cells)} cells")
    return {"cells": cells, "checks": {}}


def record_submit() -> dict:
    cells = {}
    for machine, (dra, rf, ports) in w.SUBMIT_MACHINES.items():
        config = w._config("dra" if dra else "base", rf, ports)
        for seed in w.SIM_SEEDS:
            result = w.simulate("int_test", config, seed=seed, **w.SUBMIT_GEOMETRY)
            cells[w.submit_label(machine, seed)] = [result.stats.retired,
                                                    result.stats.cycles]
    print(f"submit-mixed: {len(cells)} cells")
    return {"cells": cells, "checks": {}}


RECORDERS = {
    "explore-mechanisms": record_explore,
    "kernel-long": record_kernel,
    "submit-mixed": record_submit,
}


def main(argv) -> int:
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    for name in argv or RECORDERS:
        expected[name] = RECORDERS[name]()
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
