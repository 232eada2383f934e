#!/usr/bin/env python
"""Regenerate the pinned golden numbers in tests/golden/.

Run after an *intentional* timing-model change, then review the diff:

    PYTHONPATH=src python scripts/update_golden.py

Every entry is exact integer state (cycles, retired, reissues) from a
small deterministic run, so any unintended timing change shows up as a
test failure with a reviewable diff instead of a silent drift.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

from repro.core.backend import parse_backend  # noqa: E402
from repro.core.config import CoreConfig  # noqa: E402
from repro.core.simulator import simulate  # noqa: E402

# The run geometry is owned by repro.perfhist.profile so the pins and
# the committed performance history can never drift apart.
from repro.perfhist.profile import (  # noqa: E402
    GOLDEN_RUN as RUN,
    golden_cells,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "tests", "golden",
    "ipc_numbers.json",
)

#: Scenario-family pins.  Each embeds its full run geometry (unlike the
#: core cells, which share RUN) so new families can pick their own.
SCENARIO_RUNS = {
    "pointer_chase_base_rf3": {
        "workload": "pointer_chase",
        "kind": "base",
        "rf": 3,
        "instructions": 2_000,
        "warmup": 20_000,
        "detailed_warmup": 400,
        "seed": 0,
    },
}


def _scenario_config(run: dict) -> CoreConfig:
    if run["kind"] == "dra":
        return CoreConfig.with_dra(run["rf"])
    return CoreConfig.base(run["rf"])


def collect(backend) -> dict:
    """Run every pinned cell on ``backend`` (the caller has checked it
    is the reference kernel) and return the pin file's contents."""
    cells = {}
    for label, config in golden_cells():
        stats = simulate(
            RUN["workload"],
            config,
            instructions=RUN["instructions"],
            warmup=RUN["warmup"],
            detailed_warmup=RUN["detailed_warmup"],
            seed=RUN["seed"],
            backend=backend,
        ).stats
        cells[label] = {
            "pipe": config.label,
            "cycles": stats.cycles,
            "retired": stats.retired,
            "total_reissues": stats.total_reissues,
        }
        print(f"{label:12s} {config.label:>8s} cycles={stats.cycles} "
              f"retired={stats.retired} reissues={stats.total_reissues}")
    scenario_cells = {}
    for label, run in SCENARIO_RUNS.items():
        config = _scenario_config(run)
        stats = simulate(
            run["workload"],
            config,
            instructions=run["instructions"],
            warmup=run["warmup"],
            detailed_warmup=run["detailed_warmup"],
            seed=run["seed"],
            backend=backend,
        ).stats
        scenario_cells[label] = {
            "run": dict(run),
            "pipe": config.label,
            "cycles": stats.cycles,
            "retired": stats.retired,
            "total_reissues": stats.total_reissues,
        }
        print(f"{label:24s} {config.label:>8s} cycles={stats.cycles} "
              f"retired={stats.retired} reissues={stats.total_reissues}")
    return {"run": RUN, "cells": cells, "scenario_cells": scenario_cells}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend", default="reference", metavar="SPEC",
        help="kernel backend to regenerate from; anything but the "
             "reference loop is refused — pins are ground truth, and "
             "ground truth comes only from the reference kernel "
             "(every other backend is *tested against* these numbers)",
    )
    args = parser.parse_args()
    try:
        backend = parse_backend(args.backend)
    except Exception as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if backend.name != "reference":
        print(
            f"error: refusing to regenerate golden pins from backend "
            f"{backend.token!r}; pins define the ground truth other "
            f"backends are verified against, so they may only come "
            f"from the reference kernel",
            file=sys.stderr,
        )
        return 2
    golden = collect(backend)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {os.path.relpath(GOLDEN_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
