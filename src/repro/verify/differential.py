"""Differential configuration checks: cross-machine consistency laws.

These checks exploit structural relations between configurations that
must hold regardless of the workload, so any breakage localises a
timing-model bug even when every single-run invariant passes:

* **DRA/base equivalence** — a DRA machine whose cluster register
  caches can hold the entire physical register file never misses an
  operand, so its timing must be *cycle-for-cycle identical* to the
  base machine with the same DEC->IQ / IQ->EX geometry
  (``CoreConfig.base(1)`` and ``CoreConfig.with_dra(3)`` both run a
  5_3 pipe).  §4's argument that a big-enough register cache is just
  a register file, made executable.
* **infinite-CRC miss freedom** — per preset, a DRA variant whose CRCs
  cover every physical register must report zero operand-miss events.
* **RF-latency monotonicity** — per preset, stretching the register
  read (and with it IQ->EX, as in §6's base machines) can never raise
  IPC.  The paper's Figure 8 downward slope, as an inequality.
* **stall-recovery silence** — under ``LoadRecovery.STALL`` nothing
  ever issues before its operands are known good, so the reissue
  counters and load misspeculation count must be exactly zero.
* **SSR zero-threshold equivalence** — ``LoadRecovery.SSR`` with
  ``ssr_threshold=0`` releases held dependents at exactly the STALL
  machine's conservative point, so the two machines must be
  *cycle-for-cycle identical* (and SSR, holding dependents at issue,
  must itself never reissue).
* **port sufficiency** — a base machine whose read ports cover the
  peak per-cycle operand demand (issue_width x max sources) can never
  port-stall, so it must be cycle-for-cycle identical to one with
  arbitrarily many ports, with ``port_stalls == 0``.
* **restored-warm ≡ fresh-warm** — one functional-warmup snapshot,
  restored into every machine sharing its warm key (machines differing
  only in loop knobs), must reproduce warming afresh cycle for cycle:
  the full ``CoreStats`` and the retire stream, on every restore.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.core.config import CoreConfig, DRAConfig, LoadRecovery
from repro.presets import MACHINE_PRESETS, preset


@dataclass
class DifferentialCheck:
    """Outcome of one cross-configuration law."""

    name: str
    passed: bool
    detail: str

    def describe(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def _run(workload, config, instructions, warmup, detailed_warmup, seed,
         backend="reference"):
    from repro.core.simulator import simulate

    return simulate(
        workload,
        config,
        instructions=instructions,
        warmup=warmup,
        detailed_warmup=detailed_warmup,
        seed=seed,
        backend=backend,
    ).stats


def _infinite_crc(config: CoreConfig) -> DRAConfig:
    """A CRC geometry that can never evict a live register."""
    base = config.dra if config.dra is not None else DRAConfig()
    return replace(
        base, crc_entries=config.num_pregs, counter_bits=16
    )


def check_dra_base_equivalence(
    workload: str = "int_test",
    instructions: int = 2000,
    warmup: int = 20_000,
    detailed_warmup: int = 400,
    seed: int = 0,
    backend: str = "reference",
) -> DifferentialCheck:
    """``base(1)`` and infinite-CRC ``with_dra(3)`` must match exactly."""
    base_config = CoreConfig.base(1)
    dra_config = CoreConfig.with_dra(
        3, dra=replace(DRAConfig(), crc_entries=768, counter_bits=16)
    )
    base_stats = _run(
        workload, base_config, instructions, warmup, detailed_warmup, seed,
        backend=backend,
    )
    dra_stats = _run(
        workload, dra_config, instructions, warmup, detailed_warmup, seed,
        backend=backend,
    )
    mismatches = []
    if base_stats.cycles != dra_stats.cycles:
        mismatches.append(
            f"cycles {base_stats.cycles} != {dra_stats.cycles}"
        )
    if base_stats.retired != dra_stats.retired:
        mismatches.append(
            f"retired {base_stats.retired} != {dra_stats.retired}"
        )
    if dra_stats.operand_miss_events:
        mismatches.append(
            f"{dra_stats.operand_miss_events} operand misses under an "
            f"infinite CRC"
        )
    if mismatches:
        return DifferentialCheck(
            "dra-base-equivalence", False, "; ".join(mismatches)
        )
    return DifferentialCheck(
        "dra-base-equivalence",
        True,
        f"{base_config.label} == {dra_config.label} at "
        f"{base_stats.cycles} cycles / {base_stats.retired} retired",
    )


def check_infinite_crc(
    preset_name: str,
    workload: str = "int_test",
    instructions: int = 2000,
    warmup: int = 20_000,
    detailed_warmup: int = 400,
    seed: int = 0,
    backend: str = "reference",
) -> DifferentialCheck:
    """A CRC covering every preg must never miss an operand."""
    config = preset(preset_name)
    config = replace(config, dra=_infinite_crc(config))
    stats = _run(
        workload, config, instructions, warmup, detailed_warmup, seed,
        backend=backend,
    )
    name = f"infinite-crc[{preset_name}]"
    if stats.operand_miss_events:
        return DifferentialCheck(
            name,
            False,
            f"{stats.operand_miss_events} operand misses with "
            f"crc_entries == num_pregs ({config.num_pregs})",
        )
    return DifferentialCheck(
        name, True, f"0 operand misses over {stats.retired} retirements"
    )


def check_rf_monotonicity(
    preset_name: str,
    workload: str = "int_test",
    instructions: int = 1500,
    warmup: int = 20_000,
    detailed_warmup: int = 300,
    seed: int = 0,
    deltas=(0, 2, 4),
    backend: str = "reference",
) -> DifferentialCheck:
    """Baseline IPC must not increase as the RF read lengthens.

    Each step stretches ``rf_read_latency`` and ``iq_ex`` together,
    exactly how :meth:`CoreConfig.base` builds §6's base machines.
    """
    config = preset(preset_name)
    if config.dra is not None:
        config = replace(config, dra=None)
    ipcs = []
    for delta in deltas:
        stretched = replace(
            config,
            rf_read_latency=config.rf_read_latency + delta,
            iq_ex=config.iq_ex + delta,
        )
        stats = _run(
            workload, stretched, instructions, warmup, detailed_warmup, seed,
            backend=backend,
        )
        ipcs.append((delta, stats.ipc))
    name = f"rf-monotonicity[{preset_name}]"
    trace = ", ".join(f"+{d}:{ipc:.4f}" for d, ipc in ipcs)
    for (d_lo, ipc_lo), (d_hi, ipc_hi) in zip(ipcs, ipcs[1:]):
        if ipc_hi > ipc_lo + 1e-12:
            return DifferentialCheck(
                name,
                False,
                f"IPC rose from {ipc_lo:.4f} (+{d_lo}) to "
                f"{ipc_hi:.4f} (+{d_hi}): {trace}",
            )
    return DifferentialCheck(name, True, trace)


def check_stall_recovery(
    preset_name: str,
    workload: str = "int_test",
    instructions: int = 1500,
    warmup: int = 20_000,
    detailed_warmup: int = 300,
    seed: int = 0,
    backend: str = "reference",
) -> DifferentialCheck:
    """``LoadRecovery.STALL`` must produce zero reissues/misspeculations."""
    config = preset(preset_name)
    if config.dra is not None:
        config = replace(config, dra=None)
    config = replace(config, load_recovery=LoadRecovery.STALL)
    stats = _run(
        workload, config, instructions, warmup, detailed_warmup, seed,
        backend=backend,
    )
    name = f"stall-recovery[{preset_name}]"
    if stats.total_reissues or stats.load_misspeculations:
        return DifferentialCheck(
            name,
            False,
            f"{stats.total_reissues} reissues, "
            f"{stats.load_misspeculations} load misspeculations under "
            f"stall recovery",
        )
    return DifferentialCheck(
        name, True, f"silent over {stats.retired} retirements"
    )


def check_ssr_zero_threshold(
    workload: str = "int_test",
    instructions: int = 1500,
    warmup: int = 20_000,
    detailed_warmup: int = 300,
    seed: int = 0,
    rf: int = 5,
    backend: str = "reference",
) -> DifferentialCheck:
    """SSR with threshold 0 must equal the STALL machine exactly.

    Threshold 0 means dependents are released at precisely the STALL
    machine's conservative publication point, so every cycle of both
    runs must agree — and SSR must be as silent as STALL (dependents
    held at issue never mis-speculate).
    """
    stall_config = CoreConfig.base(rf, load_recovery=LoadRecovery.STALL)
    ssr_config = CoreConfig.base(
        rf, load_recovery=LoadRecovery.SSR, ssr_threshold=0
    )
    stall_stats = _run(
        workload, stall_config, instructions, warmup, detailed_warmup, seed,
        backend=backend,
    )
    ssr_stats = _run(
        workload, ssr_config, instructions, warmup, detailed_warmup, seed,
        backend=backend,
    )
    name = f"ssr-zero-threshold[rf{rf}]"
    mismatches = []
    for field_name in ("cycles", "retired", "issues"):
        stall_value = getattr(stall_stats, field_name)
        ssr_value = getattr(ssr_stats, field_name)
        if stall_value != ssr_value:
            mismatches.append(
                f"{field_name} {stall_value} != {ssr_value}"
            )
    if ssr_stats.total_reissues or ssr_stats.load_misspeculations:
        mismatches.append(
            f"{ssr_stats.total_reissues} reissues, "
            f"{ssr_stats.load_misspeculations} load misspeculations "
            f"under SSR"
        )
    if mismatches:
        return DifferentialCheck(name, False, "; ".join(mismatches))
    return DifferentialCheck(
        name,
        True,
        f"STALL == SSR(0) at {stall_stats.cycles} cycles / "
        f"{stall_stats.retired} retired, SSR silent",
    )


def check_port_sufficiency(
    workload: str = "int_test",
    instructions: int = 1500,
    warmup: int = 20_000,
    detailed_warmup: int = 300,
    seed: int = 0,
    rf: int = 5,
    backend: str = "reference",
) -> DifferentialCheck:
    """Ports >= peak operand demand must equal unlimited ports exactly.

    Peak per-cycle demand is issue_width instructions x 2 sources; a
    machine with that many read ports can never port-stall, so raising
    the port count further cannot change a single cycle.
    """
    base = CoreConfig.base(rf)
    peak_demand = 2 * base.issue_width
    sufficient = replace(base, rf_read_ports=peak_demand)
    unlimited = replace(base, rf_read_ports=16 * peak_demand)
    sufficient_stats = _run(
        workload, sufficient, instructions, warmup, detailed_warmup, seed,
        backend=backend,
    )
    unlimited_stats = _run(
        workload, unlimited, instructions, warmup, detailed_warmup, seed,
        backend=backend,
    )
    name = f"port-sufficiency[rf{rf}]"
    mismatches = []
    for field_name in ("cycles", "retired", "issues", "port_stalls"):
        lhs = getattr(sufficient_stats, field_name)
        rhs = getattr(unlimited_stats, field_name)
        if lhs != rhs:
            mismatches.append(f"{field_name} {lhs} != {rhs}")
    if sufficient_stats.port_stalls:
        mismatches.append(
            f"{sufficient_stats.port_stalls} port stalls with "
            f"{peak_demand} ports (peak demand {peak_demand})"
        )
    if mismatches:
        return DifferentialCheck(name, False, "; ".join(mismatches))
    return DifferentialCheck(
        name,
        True,
        f"{peak_demand} ports == {16 * peak_demand} ports at "
        f"{sufficient_stats.cycles} cycles, 0 port stalls",
    )


#: Default machines for :func:`check_warm_restore`: one warm key, three
#: loop mechanisms at three rf latencies.
WARM_RESTORE_CONFIGS = (
    CoreConfig.base(3),
    CoreConfig.with_dra(5),
    CoreConfig.base(7, rf_read_ports=4),
)


def check_warm_restore(
    workload: str = "int_test",
    configs: Sequence[CoreConfig] = WARM_RESTORE_CONFIGS,
    instructions: int = 1500,
    warmup: int = 20_000,
    detailed_warmup: int = 300,
    seed: int = 0,
    backend: str = "reference",
) -> DifferentialCheck:
    """A restored warm snapshot must equal warming afresh, exactly.

    The snapshot is taken once, on the first config, and restored twice
    into every config; each restored run must match that config's
    freshly warmed run in its full ``CoreStats`` and its retire stream.
    All ``configs`` must share one warm key.
    """
    from repro.core.backend import RetireStreamRecorder, parse_backend
    from repro.workloads import workload_profiles

    kernel = parse_backend(backend)
    profiles = workload_profiles(workload)

    def run(config, prepare):
        sim = kernel.build(config, profiles, seed=seed)
        recorder = RetireStreamRecorder()
        recorder.install(sim)
        prepare(sim)
        stats = kernel.run(sim, instructions, warmup=detailed_warmup)
        return stats, recorder.stream

    snapshot = kernel.build(configs[0], profiles, seed=seed).snapshot_warmup(
        warmup
    )
    name = f"warm-restore[{workload}]"
    for config in configs:
        fresh_stats, fresh_stream = run(
            config, lambda sim: sim.functional_warmup(warmup)
        )
        for restore in (1, 2):
            stats, stream = run(
                config, lambda sim: sim.restore_warmup(snapshot, warmup)
            )
            mismatches = []
            if stats != fresh_stats:
                mismatches.append(
                    f"CoreStats differ (cycles {fresh_stats.cycles} "
                    f"fresh, {stats.cycles} restored)"
                )
            if stream != fresh_stream:
                mismatches.append("retire streams differ")
            if mismatches:
                return DifferentialCheck(
                    name, False,
                    f"{config.label}, restore {restore}: "
                    + "; ".join(mismatches),
                )
    return DifferentialCheck(
        name,
        True,
        "one snapshot, restored twice == fresh warmup on "
        f"{', '.join(config.label for config in configs)}",
    )


def run_differential_checks(
    workload: str = "int_test",
    instructions: int = 1500,
    warmup: int = 20_000,
    detailed_warmup: int = 300,
    seed: int = 0,
    presets: Optional[List[str]] = None,
    backend: str = "reference",
) -> List[DifferentialCheck]:
    """The full differential matrix (what ``repro verify -d`` runs)."""
    names = list(presets) if presets is not None else list(MACHINE_PRESETS)
    checks = [
        check_dra_base_equivalence(
            workload,
            instructions=max(instructions, 2000),
            warmup=warmup,
            detailed_warmup=detailed_warmup,
            seed=seed,
            backend=backend,
        ),
        check_ssr_zero_threshold(
            workload, instructions, warmup, detailed_warmup, seed,
            backend=backend,
        ),
        check_port_sufficiency(
            workload, instructions, warmup, detailed_warmup, seed,
            backend=backend,
        ),
        check_warm_restore(
            workload, instructions=instructions, warmup=warmup,
            detailed_warmup=detailed_warmup, seed=seed, backend=backend,
        ),
    ]
    for name in names:
        checks.append(
            check_infinite_crc(
                name, workload, instructions, warmup, detailed_warmup, seed,
                backend=backend,
            )
        )
        checks.append(
            check_rf_monotonicity(
                name, workload, instructions, warmup, detailed_warmup, seed,
                backend=backend,
            )
        )
        checks.append(
            check_stall_recovery(
                name, workload, instructions, warmup, detailed_warmup, seed,
                backend=backend,
            )
        )
    return checks
