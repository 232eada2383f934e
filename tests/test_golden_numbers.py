"""Exact-integer regression pins for the core timing model.

Baseline and DRA machines at RF read latency 3/5/7 must reproduce the
checked-in ``tests/golden/ipc_numbers.json`` *exactly* — cycles,
retirements and reissue counts.  Any timing-model change, intended or
not, trips these tests; intended changes regenerate the file with::

    PYTHONPATH=src python scripts/update_golden.py

and the diff of the JSON becomes part of the review.
"""

import json
import os

import pytest

from repro.core.backend import BACKENDS
from repro.core.config import CoreConfig
from repro.core.simulator import simulate
from repro.perfhist.profile import golden_cells

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "ipc_numbers.json"
)

with open(GOLDEN_PATH, "r", encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

#: Every exact backend must reproduce the pins bit for bit; inexact
#: backends (sampled) are held to their error bounds elsewhere.
EXACT_BACKENDS = [name for name, kernel in BACKENDS.items() if kernel.exact]


#: label -> CoreConfig, owned by repro.perfhist.profile (the same
#: geometry scripts/update_golden.py regenerates from) so the test and
#: the updater can never disagree about what a label means.
_CELL_CONFIGS = dict(golden_cells())


def _config_for(label: str) -> CoreConfig:
    return _CELL_CONFIGS[label]


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
@pytest.mark.parametrize("label", sorted(GOLDEN["cells"]))
def test_golden_cell(label, backend):
    expected = GOLDEN["cells"][label]
    run = GOLDEN["run"]
    config = _config_for(label)
    assert config.label == expected["pipe"], (
        "pipeline geometry drifted; regenerate the golden file if this "
        "is intentional"
    )
    stats = simulate(
        run["workload"],
        config,
        instructions=run["instructions"],
        warmup=run["warmup"],
        detailed_warmup=run["detailed_warmup"],
        seed=run["seed"],
        backend=backend,
    ).stats
    got = {
        "pipe": config.label,
        "cycles": stats.cycles,
        "retired": stats.retired,
        "total_reissues": stats.total_reissues,
    }
    assert got == expected, (
        f"{label} [{backend}]: timing diverged from the golden pin; if "
        f"the change is intentional run scripts/update_golden.py and "
        f"review the diff (pins regenerate from reference only)"
    )


def test_golden_file_covers_all_machine_families():
    """Pins span base, DRA, and port-starved base at every RF latency."""
    labels = set(GOLDEN["cells"])
    for rf in (3, 5, 7):
        assert f"base_rf{rf}" in labels
        assert f"dra_rf{rf}" in labels
        assert f"base_p4_rf{rf}" in labels
    assert labels == set(_CELL_CONFIGS), (
        "golden file cells drifted from repro.perfhist.profile."
        "golden_cells(); rerun scripts/update_golden.py"
    )


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
@pytest.mark.parametrize("label", sorted(GOLDEN["scenario_cells"]))
def test_scenario_golden_cell(label, backend):
    """Scenario-family workloads pin exactly, like the core cells.

    Each cell embeds its own run geometry so families with different
    characteristics can pick suitable warmups.
    """
    expected = GOLDEN["scenario_cells"][label]
    run = expected["run"]
    if run["kind"] == "dra":
        config = CoreConfig.with_dra(run["rf"])
    else:
        config = CoreConfig.base(run["rf"])
    assert config.label == expected["pipe"]
    stats = simulate(
        run["workload"],
        config,
        instructions=run["instructions"],
        warmup=run["warmup"],
        detailed_warmup=run["detailed_warmup"],
        seed=run["seed"],
        backend=backend,
    ).stats
    got = {
        "cycles": stats.cycles,
        "retired": stats.retired,
        "total_reissues": stats.total_reissues,
    }
    assert got == {
        key: expected[key] for key in got
    }, (
        f"{label} [{backend}]: timing diverged from the golden pin; if "
        f"the change is intentional run scripts/update_golden.py and "
        f"review the diff"
    )


def test_scenario_pins_cover_a_new_family():
    """At least one scenario-family workload stays pinned."""
    families = {
        cell["run"]["workload"]
        for cell in GOLDEN["scenario_cells"].values()
    }
    assert "pointer_chase" in families
