"""Tests for the memory-barrier loop (§1's stall-managed loose loop)."""

from repro.core import CoreConfig
from repro.core.backend import available_backends, get_backend
from repro.isa import OpClass
from repro.loops import loops_for_config
from repro.workloads.mix import InstructionMix
from repro.workloads.profiles import (
    DependencyModel,
    MemoryModel,
    WorkloadProfile,
)

KB = 1024


def barrier_profile(barrier_weight: float) -> WorkloadProfile:
    return WorkloadProfile(
        name="barriers",
        mix=InstructionMix(
            {
                OpClass.INT_ALU: 0.8 - barrier_weight,
                OpClass.LOAD: 0.2,
                OpClass.MEM_BARRIER: barrier_weight,
            }
        ),
        memory=MemoryModel(
            hot_frac=1.0, warm_frac=0.0, cold_frac=0.0, stream_frac=0.0,
            hot_bytes=8 * KB,
        ),
        deps=DependencyModel(
            strands=16, chain_frac=0.1, near_mean=20.0, far_frac=0.0,
            two_src_frac=0.3, global_frac=0.2, fanout_burst_frac=0.0,
        ),
    )


#: Every exact kernel: the barrier stall is a rename-stage exit that the
#: compiled loop implements on its own.
EXACT_BACKENDS = [
    name for name in available_backends() if get_backend(name).exact
]


def run(barrier_weight: float, backend: str):
    sim = get_backend(backend).build(
        CoreConfig.base(), [barrier_profile(barrier_weight)], seed=0
    )
    sim.run(2000)
    return sim


class TestMemoryBarrier:
    def test_barriers_stall_renaming(self):
        for backend in EXACT_BACKENDS:
            sim = run(0.02, backend)
            assert sim.stats.barrier_stall_cycles > 0, backend
            assert sim.stats.retired >= 2000, backend

    def test_barriers_cost_throughput(self):
        for backend in EXACT_BACKENDS:
            with_barriers = run(0.03, backend)
            without = run(0.0, backend)
            assert with_barriers.stats.ipc < without.stats.ipc, backend
            assert without.stats.barrier_stall_cycles == 0, backend

    def test_infrequent_barriers_are_cheap(self):
        """§1: stalling is tenable when the loop occurs infrequently."""
        for backend in EXACT_BACKENDS:
            rare = run(0.001, backend)
            without = run(0.0, backend)
            assert rare.stats.ipc > 0.85 * without.stats.ipc, backend

    def test_barrier_loop_in_inventory(self):
        loops = {l.name: l for l in loops_for_config(CoreConfig.base())}
        assert "memory_barrier" in loops
        assert loops["memory_barrier"].is_loose
        assert loops["memory_barrier"].kind.value == "resource"
