"""Shared machinery for the figure-regeneration benchmarks.

Each benchmark regenerates one table/figure of the paper, asserts the
*shape* the paper reports (who wins, roughly by how much, where the
crossovers fall — see DESIGN.md §6), and writes the rendered table to
``benchmarks/results/`` so EXPERIMENTS.md can be refreshed from a run.

Set ``REPRO_BENCH_FULL=1`` for the seed-averaged settings used to record
the committed EXPERIMENTS.md numbers.

One session shares a content-keyed result cache, so a cell that several
benchmarks ask for (a figure's baseline, an ablation's base machine) is
simulated once and read back afterwards.
"""

import os
import pathlib

import pytest

from repro.experiments import ExperimentSettings
from repro.harness import HarnessSettings, set_default_harness

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_settings() -> ExperimentSettings:
    """Benchmark fidelity, overridable via REPRO_BENCH_FULL."""
    if os.environ.get("REPRO_BENCH_FULL"):
        return ExperimentSettings.full()
    return ExperimentSettings(instructions=8_000)


@pytest.fixture(scope="session", autouse=True)
def shared_result_cache(tmp_path_factory):
    """Install a default harness whose cache lives for the session."""
    cache_dir = tmp_path_factory.mktemp("cells")
    previous = set_default_harness(HarnessSettings(cache_dir=str(cache_dir)))
    yield
    set_default_harness(previous)


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    return bench_settings()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_result(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Persist a rendered figure for EXPERIMENTS.md."""
    (results_dir / f"{name}.txt").write_text(text + "\n")


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
