"""The benchmark workloads.

Importing this module is part of set-up (``import repro`` and the
workload's modules).  Each workload turns ``--seed`` into its inputs,
sets up (empty cache and store directories, the server for
``submit-mixed``), runs once through
the program's public entry points, and reports what it simulated so the
outputs can be checked against ``expected.json``.

Inputs come from a pool of eight simulation seeds so that every cell a
run can produce has a recorded expected (retired, cycles) pair;
``record_expected.py`` regenerates that file from the whole pool.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core import CoreConfig
from repro.core.simulator import simulate
from repro.errors import ReproError
from repro.experiments.runner import ExperimentSettings, HarnessSettings
from repro.explore import HalvingSettings, named_space, run_exploration
from repro.harness import Cell, ResultCache
from repro.serve import CampaignClient, CampaignServer, ServeSettings

#: Simulation seeds a run may draw from (all of them are recorded).
SIM_SEEDS = tuple(range(8))

#: explore-mechanisms: the CI smoke geometry of the mechanisms space.
EXPLORE_WORKLOADS = ("int_test",)
EXPLORE_GEOMETRY = dict(rungs=2, base_instructions=500, growth=3,
                        warmup=10_000, detailed_warmup=200)

#: kernel-long: (workload, machine, measured instructions) per call;
#: short functional warmup, long detailed window.
KERNEL_CALLS = (
    ("int_test", "base", 3, 15_000),
    ("apsi+swim", "dra", 5, 5_000),
    ("pointer_chase", "base", 5, 4_000),
)
KERNEL_WARMUP = 5_000

#: submit-mixed: the golden-pin geometry, so seed-0 cells cross-check
#: against tests/golden/ipc_numbers.json.
SUBMIT_GEOMETRY = dict(instructions=2_000, warmup=20_000, detailed_warmup=400)
#: golden label -> (dra, rf, read ports override)
SUBMIT_MACHINES = {
    f"{kind}_rf{rf}": (kind == "dra", rf, 4 if kind == "base_p4" else None)
    for rf in (3, 5, 7)
    for kind in ("base", "dra", "base_p4")
}
SUBMIT_NEW = 5
SUBMIT_REPEATS = 3
SUBMIT_CLIENTS = 2


def _config(kind: str, rf: int, ports: Optional[int] = None) -> CoreConfig:
    extra = {"rf_read_ports": ports} if ports else {}
    if kind == "dra":
        return CoreConfig.with_dra(rf, **extra)
    return CoreConfig.base(rf, **extra)


def kernel_label(workload: str, config, instructions: int, seed: int) -> str:
    return f"{workload}|{config.label}|n{instructions}|s{seed}"


def submit_label(machine: str, seed: int) -> str:
    return f"int_test|{machine}|s{seed}"


def _summary(stats) -> Dict[str, float]:
    return {k: float(v) for k, v in stats.summary().items()}


class Workload:
    """One workload: ``setup`` and ``teardown`` untimed, ``run`` timed."""

    name = "?"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.rng = random.Random(seed)

    def setup(self) -> None:
        self.cache_dir = self.workdir / "cache"
        self.store_dir = self.workdir / "store"
        self.cache_dir.mkdir(parents=True)
        self.store_dir.mkdir(parents=True)

    def run(self) -> None:
        """Run once: the timed part."""
        raise NotImplementedError

    def outputs(self) -> Dict[str, Any]:
        """What ``run`` produced: {"cells": {label: stats summary},
        "cell_count": cells it should have simulated, "checks": {name:
        value}, "attempted": n, "failed": n}, plus "golden": {label:
        golden pin} for cells pinned there."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass


def _cached_cells(cache_dir: Path, cells) -> Dict[str, Dict[str, float]]:
    """label -> stats summary of each (label, harness Cell) read back
    from the run's result cache."""
    cache = ResultCache(cache_dir)
    found = {}
    for label, cell in cells:
        result = cache.get(cell.key)
        if result is not None:
            found[label] = _summary(result.stats)
    return found


class ExploreMechanisms(Workload):
    """``run_exploration`` on the mechanisms space, CI smoke geometry."""

    name = "explore-mechanisms"

    def setup(self) -> None:
        super().setup()
        self.sim_seed = self.rng.choice(SIM_SEEDS)
        self.space = named_space("mechanisms")
        self.halving = HalvingSettings(seeds=(self.sim_seed,), **EXPLORE_GEOMETRY)
        self.harness = HarnessSettings(jobs=2, cache_dir=str(self.cache_dir))

    def run(self) -> None:
        self.result = run_exploration(
            self.space, workloads=EXPLORE_WORKLOADS, halving=self.halving,
            harness=self.harness, store_dir=self.store_dir,
        )
        self.result.render()

    def outputs(self) -> Dict[str, Any]:
        search = self.result.search
        cells = []
        for rung in search.rungs:
            settings = ExperimentSettings(
                instructions=rung.instructions,
                warmup=self.halving.warmup,
                detailed_warmup=self.halving.detailed_warmup,
                seeds=self.halving.seeds,
                backend=rung.backend,
            )
            for label in sorted(rung.scores):
                config = search.candidate(label).config
                for workload in EXPLORE_WORKLOADS:
                    for seed in self.halving.seeds:
                        cells.append((
                            f"rung{rung.index}|{label}|{workload}|s{seed}",
                            Cell(workload, config, settings, seed),
                        ))
        s = f"s{self.sim_seed}"
        return {
            "cells": _cached_cells(self.cache_dir, cells),
            "cell_count": len(cells),
            "checks": {
                f"frontier|{s}": sorted(p.label for p in self.result.frontier.frontier),
                f"ordering_ok|{s}": self.result.ordering_ok(),
            },
            "attempted": len(cells),
            "failed": len(search.failures),
            "spent_instructions": self.result.spent_instructions,
        }


class KernelLong(Workload):
    """Inline ``simulate()`` calls with long windows: the ``loopsim run``
    path, where the detailed kernel is most of the time."""

    name = "kernel-long"

    def setup(self) -> None:
        super().setup()
        self.calls = [
            (workload, _config(kind, rf), instructions, self.rng.choice(SIM_SEEDS))
            for workload, kind, rf, instructions in KERNEL_CALLS
        ]

    def run(self) -> None:
        self.results = [
            simulate(workload, config, instructions=instructions,
                     warmup=KERNEL_WARMUP, seed=seed)
            for workload, config, instructions, seed in self.calls
        ]

    def outputs(self) -> Dict[str, Any]:
        cells = {
            kernel_label(workload, config, instructions, seed): _summary(result.stats)
            for (workload, config, instructions, seed), result
            in zip(self.calls, self.results)
        }
        return {"cells": cells, "cell_count": len(self.calls), "checks": {},
                "attempted": len(self.calls), "failed": 0}


def submit_sequence(rng: random.Random) -> List[Tuple[str, int]]:
    """The seeded submit order: (golden machine label, sim seed) items,
    ``SUBMIT_NEW`` distinct cells plus ``SUBMIT_REPEATS`` repeats of
    earlier items."""
    pool = [(label, seed) for label in SUBMIT_MACHINES for seed in SIM_SEEDS]
    fresh = rng.sample(pool, SUBMIT_NEW)
    kinds = ["repeat"] * SUBMIT_REPEATS + ["new"] * (SUBMIT_NEW - 1)
    rng.shuffle(kinds)
    sequence = [fresh.pop(0)]
    for kind in kinds:
        sequence.append(fresh.pop(0) if kind == "new" else rng.choice(sequence))
    return sequence


class SubmitMixed(Workload):
    """Two closed-loop clients against a ``CampaignServer`` on
    ``loopsim serve`` defaults; three of eight submits repeat a cell."""

    name = "submit-mixed"

    def setup(self) -> None:
        super().setup()
        self.sequence = submit_sequence(self.rng)
        settings = ServeSettings(
            port=0, harness=HarnessSettings(cache_dir=str(self.cache_dir))
        )
        self.server = CampaignServer(settings)
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        if not self._started.wait(30):
            raise RuntimeError("campaign server did not start")

    def _serve(self) -> None:
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            await self.server.start()
            serving = asyncio.ensure_future(self.server.serve_forever())
            self._started.set()
            await self._stop.wait()
            await self.server.drain()
            serving.cancel()
            await asyncio.gather(serving, return_exceptions=True)

        asyncio.run(main())

    def _client(self, index: int) -> None:
        with CampaignClient(port=self.server.port) as client:
            for position in range(index, len(self.sequence), SUBMIT_CLIENTS):
                label, seed = self.sequence[position]
                dra, rf, ports = SUBMIT_MACHINES[label]
                # closed loop: each submit is due when the previous reply
                # arrives, so its latency runs from the send
                start = time.monotonic()
                try:
                    reply = client.submit(
                        "int_test", seed=seed, priority="interactive",
                        want_result=False, dra=dra, rf=rf,
                        overrides={"rf_read_ports": ports} if ports else None,
                        **SUBMIT_GEOMETRY,
                    )
                except ReproError as error:  # a refused submit counts as failed
                    reply = error
                self.replies.append((position, reply, time.monotonic() - start))

    def run(self) -> None:
        self.replies: List[Tuple[int, Any, float]] = []
        clients = [
            threading.Thread(target=self._client, args=(i,))
            for i in range(SUBMIT_CLIENTS)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()

    def outputs(self) -> Dict[str, Any]:
        with CampaignClient(port=self.server.port) as client:
            stats = client.stats()
        cells: Dict[str, Dict[str, float]] = {}
        submits = []
        failed = 0
        for position, reply, latency in self.replies:
            label, seed = self.sequence[position]
            if isinstance(reply, Exception) or not reply.ok:
                failed += 1
                continue
            submits.append((latency, reply.cached, reply.dedup))
            summary = cells.setdefault(submit_label(label, seed), reply.summary)
            if summary != reply.summary:
                failed += 1  # a repeat must return the first answer
        golden = {
            submit_label(label, 0): label for label, seed in self.sequence if seed == 0
        }
        return {"cells": cells, "cell_count": len(set(self.sequence)),
                "checks": {}, "attempted": len(self.sequence), "failed": failed,
                "golden": golden, "serve": stats["metrics"], "submits": submits}

    def teardown(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60)


WORKLOADS = {
    cls.name: cls
    for cls in (ExploreMechanisms, KernelLong, SubmitMixed)
}

