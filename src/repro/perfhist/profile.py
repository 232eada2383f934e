"""Profile builders: turn runs and benchmark files into history entries.

Three metric families feed the history:

* **IPC cells** (:func:`ipc_profiles`) — the golden-pin matrix
  (base/DRA at rf 3/5/7, §6's sweep) re-run live with the
  :mod:`repro.obs` bus attached, so every profile carries exact integer
  state (cycles, retired), the measured per-loop attribution, and the
  metrics snapshot.  One additional cell runs under the ``sampled``
  backend and carries its :class:`~repro.core.backend.SamplingReport`
  tolerance instead — the CI-band detector's input.
* **Kernel throughput** (:func:`kernel_profiles`) — the backend matrix
  from ``BENCH_kernel.json``.  The *gated* value is each backend's
  speedup over reference (host-normalised, comparable across machines);
  raw instructions/second ride along under the ``track`` detector
  because absolute host throughput is not comparable across CI
  hardware.
* **Exploration frontier** (:func:`frontier_profiles`) — final-rung
  IPC per design from ``BENCH_explore.json`` plus the paper-ordering
  predicate, so a refactor that silently breaks "DRA >= base at every
  rf" fails the history gate even if no single IPC moved beyond noise.

The golden run geometry lives here (`GOLDEN_RUN`, :func:`golden_cells`)
and is imported by ``scripts/update_golden.py`` so the pins and the
history can never drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ConfigError
from repro.perfhist.history import Epoch, PerfHistory, Profile

__all__ = [
    "GOLDEN_RUN",
    "RF_LATENCIES",
    "golden_cells",
    "ipc_profiles",
    "sampled_profile",
    "kernel_profiles",
    "frontier_profiles",
    "import_kernel_bench",
    "import_explore_bench",
    "record_epoch",
]

#: The run geometry every golden IPC cell uses — shared with
#: ``scripts/update_golden.py`` (small on purpose: exact-integer
#: regression pinning, not statistics).
GOLDEN_RUN = {
    "workload": "int_test",
    "instructions": 2_000,
    "warmup": 20_000,
    "detailed_warmup": 400,
    "seed": 0,
}

#: RF read latencies pinned per machine family (§6's 3/5/7 sweep).
RF_LATENCIES = (3, 5, 7)

#: Span for the sampled-backend cell (needs room for its windows).
SAMPLED_SPAN = 24_000

#: Detector spec for throughput speedup series: statistical once the
#: series supports it, a 4% band before that.  The history's speedup
#: values come from the *committed* BENCH file (CI re-imports it, it
#: never re-times kernels), so a drop here is a deliberate committed
#: change that must surface for review; the band is host-normalised
#: slack for benchmark refreshes run on different machines, and the
#: kernel-bench floor gate separately guards gross live regressions.
THROUGHPUT_DETECTOR = "best_model:0.04"

#: Detector spec for frontier IPC series (simulated, near-deterministic).
FRONTIER_DETECTOR = "best_model:0.02"


def golden_cells() -> Iterator[Tuple[str, Any]]:
    """(label, CoreConfig) for every golden-pin cell.

    Three machine families per rf latency: the base machine, the DRA
    machine, and a port-starved base machine (4 read ports under
    oldest-first arbitration) so the read-port stall path stays pinned
    cycle-exactly alongside the mechanisms it competes with.
    """
    from repro.core.config import CoreConfig

    for rf in RF_LATENCIES:
        yield f"base_rf{rf}", CoreConfig.base(rf)
        yield f"dra_rf{rf}", CoreConfig.with_dra(rf)
        yield f"base_p4_rf{rf}", CoreConfig.base(rf, rf_read_ports=4)


def _trim_metrics(snapshot: Optional[Dict[str, Any]]) -> Dict[str, float]:
    """Scalar metric entries only (histogram structures stay cache-side)."""
    if not snapshot:
        return {}
    return {
        key: value for key, value in sorted(snapshot.items())
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def _attributed_simulate(workload, config, **kwargs):
    """simulate() with bus + collector + attribution attached.

    Returns (result, attribution dict, metrics dict).  The bus is
    passive — attaching it does not perturb simulated timing (the
    reconciliation tests in ``tests/test_obs.py`` pin that) — so the
    recorded integers equal an unobserved run's.
    """
    from repro.core.simulator import simulate
    from repro.obs import EventBus, MetricsCollector
    from repro.obs.attribution import LoopAttribution

    bus = EventBus()
    collector = MetricsCollector(bus)
    attribution = LoopAttribution(bus, config)
    result = simulate(workload, config, obs=bus, **kwargs)
    metrics = collector.snapshot_into(result.stats)
    report = attribution.report(
        result.stats, workload=result.workload, config_label=config.label,
    )
    return result, report.to_dict(), _trim_metrics(metrics)


def ipc_profiles(backend: str = "reference") -> List[Profile]:
    """Live-measured golden-cell profiles with attribution attached."""
    profiles: List[Profile] = []
    run = GOLDEN_RUN
    for label, config in golden_cells():
        result, attribution, metrics = _attributed_simulate(
            run["workload"], config,
            instructions=run["instructions"],
            warmup=run["warmup"],
            detailed_warmup=run["detailed_warmup"],
            seed=run["seed"],
            backend=backend,
        )
        stats = result.stats
        profiles.append(Profile(
            key=f"ipc:{run['workload']}:{label}",
            kind="ipc",
            value=stats.measured_ipc,
            unit="ipc",
            detector="exact",
            exact=[stats.cycles, stats.retired, stats.total_reissues],
            attribution=attribution,
            metrics=metrics,
            meta={"run": dict(run), "pipe": config.label,
                  "backend": result.backend},
        ))
    return profiles


def sampled_profile(spec: str = "sampled") -> Profile:
    """One sampled-backend cell carrying its declared CI tolerance."""
    from repro.core.config import CoreConfig
    from repro.core.simulator import simulate

    run = GOLDEN_RUN
    result = simulate(
        run["workload"], CoreConfig.base(3),
        instructions=SAMPLED_SPAN,
        warmup=run["warmup"],
        detailed_warmup=run["detailed_warmup"],
        seed=run["seed"],
        backend=spec,
    )
    report = result.sampling
    if report is None:
        raise ConfigError(
            f"backend {spec!r} produced no sampling report; "
            "sampled_profile needs an inexact backend"
        )
    return Profile(
        key=f"ipc:{run['workload']}:sampled_base_rf3",
        kind="ipc",
        value=report.ipc_mean,
        unit="ipc",
        detector="ci",
        tolerance=report.tolerance,
        meta={
            "run": {**run, "instructions": SAMPLED_SPAN},
            "backend": result.backend,
            "windows": len(report.windows),
            "ci95": list(report.ci95),
        },
    )


def kernel_profiles(
    bench: Dict[str, Any], source: str = "BENCH_kernel.json"
) -> List[Profile]:
    """Throughput profiles from a kernel benchmark matrix payload."""
    try:
        backends = bench["backends"]
    except KeyError:
        raise ConfigError(
            f"{source}: no 'backends' table — not a kernel bench file"
        ) from None
    profiles: List[Profile] = []
    for name, row in sorted(backends.items()):
        meta = {
            "source": source,
            "exact": row.get("exact"),
            "wall_seconds": row.get("wall_seconds"),
            "ipc": row.get("ipc"),
            "run": bench.get("run", {}),
        }
        speedup = row.get("speedup_over_reference")
        if speedup is not None:
            profiles.append(Profile(
                key=f"kernel:{name}:speedup",
                kind="throughput",
                value=float(speedup),
                unit="x",
                detector=THROUGHPUT_DETECTOR,
                meta=meta,
            ))
        profiles.append(Profile(
            key=f"kernel:{name}:inst_per_s",
            kind="throughput",
            value=float(row["instructions_per_second"]),
            unit="inst/s",
            detector="track",
            meta=meta,
        ))
    return profiles


def frontier_profiles(
    bench: Dict[str, Any], source: str = "BENCH_explore.json"
) -> List[Profile]:
    """Frontier-point IPC profiles from an exploration bench payload."""
    rungs = bench.get("rungs") or []
    if not rungs:
        raise ConfigError(
            f"{source}: no rungs — not an exploration bench file"
        )
    space = bench.get("space", "unknown")
    final = rungs[-1]
    meta = {
        "source": source,
        "space_signature": bench.get("space_signature"),
        "workloads": bench.get("workloads"),
        "rung_instructions": final.get("instructions"),
    }
    profiles = [
        Profile(
            key=f"explore:{space}:{label}",
            kind="frontier",
            value=float(score),
            unit="ipc",
            detector=FRONTIER_DETECTOR,
            meta=meta,
        )
        for label, score in sorted(final.get("scores", {}).items())
        if score is not None
    ]
    profiles.append(Profile(
        key=f"explore:{space}:ordering_ok",
        kind="frontier",
        value=1.0 if bench.get("ordering_ok") else 0.0,
        unit="bool",
        detector="band:0",
        meta={"source": source,
              "claim": "best non-base design >= base at every rf latency"},
    ))
    return profiles


def _load_json(path: Union[str, Path]) -> Dict[str, Any]:
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"benchmark file not found: {path}") from None
    except json.JSONDecodeError as error:
        raise ConfigError(f"{path}: corrupt JSON ({error})") from error


def import_kernel_bench(
    history: PerfHistory, path: Union[str, Path], commit: str,
) -> Epoch:
    """Fold a committed ``BENCH_kernel.json`` into the history."""
    path = Path(path)
    epoch = Epoch(
        commit=commit,
        profiles=kernel_profiles(_load_json(path), source=path.name),
        source=f"import:{path.name}",
    )
    return history.append(epoch)


def import_explore_bench(
    history: PerfHistory, path: Union[str, Path], commit: str,
) -> Epoch:
    """Fold a committed ``BENCH_explore.json`` into the history."""
    path = Path(path)
    epoch = Epoch(
        commit=commit,
        profiles=frontier_profiles(_load_json(path), source=path.name),
        source=f"import:{path.name}",
    )
    return history.append(epoch)


def record_epoch(
    history: PerfHistory,
    commit: str,
    kernel_bench: Optional[Union[str, Path]] = None,
    explore_bench: Optional[Union[str, Path]] = None,
    mechanisms_bench: Optional[Union[str, Path]] = None,
    backend: str = "reference",
    include_sampled: bool = True,
    log=None,
) -> Epoch:
    """Measure + assemble this commit's full profile and append it.

    IPC cells are always measured live (they are fast and
    deterministic); throughput and frontier profiles are folded in from
    the committed benchmark files when given — those are produced by
    the ``kernel-bench`` and ``explore-smoke`` jobs, which own the
    machinery (and the wall-clock budget) to measure them honestly.
    """
    def say(message: str) -> None:
        if log is not None:
            log(message)

    profiles: List[Profile] = []
    cell_count = sum(1 for _ in golden_cells())
    say(f"measuring {cell_count} golden IPC cells "
        f"(backend {backend})...")
    profiles.extend(ipc_profiles(backend=backend))
    if include_sampled:
        say("measuring the sampled-backend cell...")
        profiles.append(sampled_profile())
    if kernel_bench is not None:
        path = Path(kernel_bench)
        say(f"importing kernel throughput from {path}")
        profiles.extend(
            kernel_profiles(_load_json(path), source=path.name)
        )
    if explore_bench is not None:
        path = Path(explore_bench)
        say(f"importing exploration frontier from {path}")
        profiles.extend(
            frontier_profiles(_load_json(path), source=path.name)
        )
    if mechanisms_bench is not None:
        path = Path(mechanisms_bench)
        say(f"importing competing-mechanisms frontier from {path}")
        profiles.extend(
            frontier_profiles(_load_json(path), source=path.name)
        )
    epoch = Epoch(commit=commit, profiles=profiles, source="record")
    history.append(epoch)
    say(f"recorded epoch {epoch.index} ({len(profiles)} profiles) "
        f"at commit {commit[:12]}")
    return epoch
