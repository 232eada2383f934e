"""Integration tests for the cycle-level pipeline."""

import pytest

from repro.core import CoreConfig, LoadRecovery
from repro.core.pipeline import Simulator
from repro.core.stats import ReissueCause
from repro.isa import OpClass
from repro.workloads import SPEC95_PROFILES, workload_profiles
from repro.workloads.mix import InstructionMix
from repro.workloads.profiles import (
    BranchModel,
    DependencyModel,
    MemoryModel,
    WorkloadProfile,
)

KB = 1024


def quiet_profile(**overrides) -> WorkloadProfile:
    """A hazard-free workload: no branches, all loads hit, high ILP."""
    params = dict(
        name="quiet",
        mix=InstructionMix({OpClass.INT_ALU: 0.8, OpClass.LOAD: 0.2}),
        branches=BranchModel(num_sites=8, loop_site_frac=1.0, loop_trip=1000),
        memory=MemoryModel(
            hot_frac=1.0, warm_frac=0.0, cold_frac=0.0, stream_frac=0.0,
            hot_bytes=8 * KB,
        ),
        deps=DependencyModel(
            strands=16, chain_frac=0.1, near_mean=20.0, far_frac=0.0,
            two_src_frac=0.3, global_frac=0.2, fanout_burst_frac=0.0,
        ),
    )
    params.update(overrides)
    return WorkloadProfile(**params)


def missy_profile() -> WorkloadProfile:
    """A load-heavy workload with a realistic (~20-25 %) L1 miss rate.

    Speculating that loads hit only pays when most of them do (§2.2.2:
    "most programs have a high load hit rate"), so the recovery-policy
    comparison needs hit-dominated traffic with load-fed chains.
    """
    return quiet_profile(
        name="missy",
        mix=InstructionMix({OpClass.INT_ALU: 0.6, OpClass.LOAD: 0.4}),
        memory=MemoryModel(
            hot_frac=0.75, warm_frac=0.25, cold_frac=0.0, stream_frac=0.0,
            hot_bytes=8 * KB, warm_bytes=256 * KB,
        ),
        deps=DependencyModel(
            strands=8, chain_frac=0.5, near_mean=5.0, far_frac=0.0,
            two_src_frac=0.5, global_frac=0.1, fanout_burst_frac=0.0,
        ),
    )


def unbanked_config() -> CoreConfig:
    """Base machine with a single-banked L1D (no bank-conflict hazard)."""
    from repro.memory import CacheConfig, HierarchyConfig

    hierarchy = HierarchyConfig(
        l1d=CacheConfig(name="L1D", size_bytes=64 * KB, line_bytes=64,
                        assoc=2, hit_latency=3, banks=1)
    )
    return CoreConfig.base().replace(hierarchy=hierarchy)


def run(profile, config=None, instructions=2000, warmup=0, functional=20_000):
    sim = Simulator(config or CoreConfig.base(), [profile], seed=0)
    if functional:
        sim.functional_warmup(functional)
    sim.run(instructions, warmup=warmup)
    return sim


class TestBasicExecution:
    def test_retires_requested_instructions(self):
        sim = run(quiet_profile(), instructions=1500)
        assert sim.stats.retired >= 1500

    def test_quiet_workload_reaches_high_ipc(self):
        sim = run(quiet_profile(), instructions=4000)
        assert sim.stats.ipc > 2.5

    def test_no_reissues_without_hazards(self):
        sim = run(quiet_profile(), unbanked_config(), instructions=2000)
        assert sim.stats.total_reissues == 0

    def test_retirement_is_in_program_order(self):
        sim = Simulator(CoreConfig.base(), [quiet_profile()], seed=0)
        order = []
        original = sim._retire

        def spy(cycle):
            before = len(sim.threads[0].rob)
            head_uids = [i.uid for i in list(sim.threads[0].rob)[:8]]
            original(cycle)
            after = len(sim.threads[0].rob)
            order.extend(head_uids[: before - after])

        sim._retire = spy
        sim.run(1000)
        assert order == sorted(order)

    def test_determinism(self):
        a = run(quiet_profile(), instructions=1500)
        b = run(quiet_profile(), instructions=1500)
        assert a.stats.cycles == b.stats.cycles
        assert a.stats.retired == b.stats.retired

    def test_pipeline_fill_latency(self):
        """The first instruction cannot retire before the minimum pipe."""
        sim = Simulator(CoreConfig.base(), [quiet_profile()], seed=0)
        sim.run(8)
        assert sim.stats.cycles >= sim.config.min_int_pipeline

    def test_physical_registers_conserved(self):
        sim = run(quiet_profile(), instructions=2000)
        live_maps = sum(len(t.rename_map.map) for t in sim.threads)
        inflight_dsts = sum(
            1 for t in sim.threads for i in t.rob if i.dst_preg is not None
        )
        assert sim.regfile.free_count == (
            sim.config.num_pregs - live_maps - inflight_dsts
        )

    def test_run_validates_instruction_count(self):
        sim = Simulator(CoreConfig.base(), [quiet_profile()], seed=0)
        with pytest.raises(ValueError):
            sim.run(0)

    def test_functional_warmup_must_precede_run(self):
        sim = Simulator(CoreConfig.base(), [quiet_profile()], seed=0)
        sim.run(100)
        with pytest.raises(RuntimeError):
            sim.functional_warmup(100)

    def test_max_cycles_caps_run(self):
        sim = Simulator(CoreConfig.base(), [quiet_profile()], seed=0)
        sim.run(100_000, max_cycles=200)
        assert sim.cycle == 200


class TestLoadResolutionLoop:
    def test_misses_cause_reissues(self):
        sim = run(missy_profile(), instructions=3000)
        assert sim.stats.load_misspeculations > 10
        assert sim.stats.reissues[ReissueCause.LOAD_MISS] > 0

    def test_reissue_beats_stall_and_refetch(self):
        """§2.2.2: speculation with reissue wins; re-fetch is worst.

        Memory-dependence speculation is disabled so the policies are
        compared on the load resolution loop alone."""
        ipcs = {}
        for policy in LoadRecovery:
            config = CoreConfig.base().replace(
                load_recovery=policy, memdep=None
            )
            sim = run(missy_profile(), config, instructions=3000)
            ipcs[policy] = sim.stats.ipc
        assert ipcs[LoadRecovery.REISSUE] > ipcs[LoadRecovery.REFETCH]
        assert ipcs[LoadRecovery.REISSUE] > ipcs[LoadRecovery.STALL]

    def test_stall_policy_never_misspeculates(self):
        config = CoreConfig.base().replace(load_recovery=LoadRecovery.STALL)
        sim = run(missy_profile(), config, instructions=3000)
        assert sim.stats.reissues[ReissueCause.LOAD_MISS] == 0
        assert sim.stats.reissues[ReissueCause.DEPENDENT_INVALID] == 0

    def test_refetch_squashes_instructions(self):
        config = CoreConfig.base().replace(load_recovery=LoadRecovery.REFETCH)
        sim = run(missy_profile(), config, instructions=3000)
        assert sim.stats.load_refetch_flushes > 0
        assert sim.stats.squashed_instructions > 0

    def test_refetch_still_retires_correctly(self):
        config = CoreConfig.base().replace(load_recovery=LoadRecovery.REFETCH)
        sim = run(missy_profile(), config, instructions=2000)
        assert sim.stats.retired >= 2000

    def test_ssr_never_misspeculates(self):
        """SSR holds dependents at issue: nothing ever needs replay."""
        config = CoreConfig.base().replace(load_recovery=LoadRecovery.SSR)
        sim = run(missy_profile(), config, instructions=3000)
        assert sim.stats.retired >= 3000
        assert sim.stats.load_misspeculations == 0
        assert sim.stats.reissues[ReissueCause.LOAD_MISS] == 0
        assert sim.stats.reissues[ReissueCause.DEPENDENT_INVALID] == 0

    def test_ssr_early_wakeup_beats_plain_stall(self):
        """The selective-stall threshold releases consumers early enough
        to hide part of the wakeup loop that STALL serialises."""
        ipcs = {}
        for policy, threshold in (
            (LoadRecovery.STALL, 0), (LoadRecovery.SSR, 4),
        ):
            config = CoreConfig.base().replace(
                load_recovery=policy, ssr_threshold=threshold, memdep=None
            )
            sim = run(missy_profile(), config, instructions=3000)
            ipcs[policy] = sim.stats.ipc
        assert ipcs[LoadRecovery.SSR] > ipcs[LoadRecovery.STALL]

    def test_ssr_zero_threshold_matches_stall_exactly(self):
        """T=0 degenerates to STALL cycle-for-cycle (the new law)."""
        results = {}
        for policy, threshold in (
            (LoadRecovery.STALL, 0), (LoadRecovery.SSR, 0),
        ):
            config = CoreConfig.base().replace(
                load_recovery=policy, ssr_threshold=threshold
            )
            sim = run(missy_profile(), config, instructions=3000)
            results[policy] = (sim.stats.cycles, sim.stats.retired,
                               sim.stats.issues)
        assert results[LoadRecovery.SSR] == results[LoadRecovery.STALL]

    def test_iq_pressure_from_issued_entries(self):
        """Issued instructions hold IQ entries until confirmation."""
        sim = run(missy_profile(), instructions=3000)
        assert sim.stats.avg_iq_issued_waiting > 1.0

    def test_longer_iq_ex_means_more_useless_work(self):
        short = run(missy_profile(), CoreConfig.base().with_pipe(5, 3),
                    instructions=3000)
        long = run(missy_profile(), CoreConfig.base().with_pipe(5, 9),
                   instructions=3000)
        assert long.stats.total_reissues > short.stats.total_reissues


class TestBranchResolutionLoop:
    def _branchy(self):
        return quiet_profile(
            name="branchy",
            mix=InstructionMix({OpClass.INT_ALU: 0.75, OpClass.BRANCH: 0.25}),
            branches=BranchModel(
                num_sites=32, loop_site_frac=0.0,
                random_bias_lo=0.5, random_bias_hi=0.6,
            ),
        )

    def test_mispredicts_stall_fetch(self):
        sim = run(self._branchy(), instructions=2000)
        assert sim.stats.cond_mispredicts > 50
        assert sim.stats.threads[0].branch_stall_cycles > 100

    def test_longer_pipe_longer_resolution(self):
        short = run(self._branchy(), CoreConfig.base().with_pipe(3, 3),
                    instructions=2500)
        long = run(self._branchy(), CoreConfig.base().with_pipe(9, 9),
                   instructions=2500)
        assert long.stats.ipc < short.stats.ipc

    def test_predictable_branches_cost_nothing(self):
        predictable = quiet_profile(
            name="pred",
            mix=InstructionMix({OpClass.INT_ALU: 0.75, OpClass.BRANCH: 0.25}),
            branches=BranchModel(
                num_sites=4, loop_site_frac=0.0,
                random_bias_lo=1.0, random_bias_hi=1.0,
            ),
        )
        sim = run(predictable, instructions=2500)
        assert sim.stats.branch_mispredict_rate < 0.01


class TestSMT:
    def test_both_threads_retire(self):
        profiles = workload_profiles("m88ksim+compress")
        sim = Simulator(CoreConfig.base(), profiles, seed=0)
        sim.functional_warmup(20_000)
        sim.run(3000)
        assert sim.stats.threads[0].retired > 500
        assert sim.stats.threads[1].retired > 500

    def test_smt_throughput_beats_single_thread(self):
        pair = Simulator(
            CoreConfig.base(), workload_profiles("go+su2cor"), seed=0
        )
        pair.functional_warmup(20_000)
        pair.run(4000)
        solo = Simulator(CoreConfig.base(), workload_profiles("go"), seed=0)
        solo.functional_warmup(20_000)
        solo.run(4000)
        assert pair.stats.ipc > solo.stats.ipc

    def test_round_robin_policy_runs(self):
        config = CoreConfig.base().replace(fetch_policy="round_robin")
        sim = Simulator(config, workload_profiles("m88ksim+compress"), seed=0)
        sim.functional_warmup(10_000)
        sim.run(1500)
        assert sim.stats.threads[0].retired > 100
        assert sim.stats.threads[1].retired > 100


class TestDTLB:
    def test_tlb_misses_recorded_and_penalised(self):
        profile = quiet_profile(
            name="tlbthrash",
            mix=InstructionMix({OpClass.INT_ALU: 0.6, OpClass.LOAD: 0.4}),
            memory=MemoryModel(
                hot_frac=0.2, warm_frac=0.0, cold_frac=0.8, stream_frac=0.0,
                hot_bytes=8 * KB, cold_pages=4096, page_dwell=1,
            ),
        )
        sim = run(profile, instructions=2000)
        assert sim.stats.dtlb_misses > 100


class TestDeadlockDiagnostics:
    def test_hang_raises_structured_error_with_snapshot(self, monkeypatch):
        from repro.core import pipeline as pipeline_mod
        from repro.errors import SimulationHangError

        monkeypatch.setattr(pipeline_mod, "_DEADLOCK_WINDOW", 50)
        sim = Simulator(CoreConfig.base(), [quiet_profile()], seed=0)
        # Wedge the machine: fetch never unblocks, so nothing ever
        # retires and the deadlock detector must fire.
        for thread in sim.threads:
            thread.fetch_blocked_until = 10**9
        with pytest.raises(SimulationHangError) as excinfo:
            sim.run(100)
        error = excinfo.value
        assert "deadlock" in str(error)
        # The structured raise stays a RuntimeError for old callers.
        assert isinstance(error, RuntimeError)
        snapshot = error.snapshot
        assert snapshot is not None
        assert snapshot.retired == 0
        assert snapshot.cycle > snapshot.last_retire_cycle
        assert set(snapshot.stage_occupancy) == {
            "fetch/decode", "rename->IQ", "issue queue", "execute", "rob",
        }
        text = snapshot.describe()
        assert "stage occupancy" in text
        assert str(snapshot.cycle) in text

    def test_snapshot_reports_oldest_inflight_instruction(self, monkeypatch):
        from repro.core import pipeline as pipeline_mod
        from repro.errors import SimulationHangError

        monkeypatch.setattr(pipeline_mod, "_DEADLOCK_WINDOW", 500)
        sim = Simulator(CoreConfig.base(), [quiet_profile()], seed=0)
        # Let the pipeline fill and retire normally for a while...
        sim.run(200)
        # ...then freeze retirement while the front end keeps fetching.
        monkeypatch.setattr(
            pipeline_mod.Simulator, "_retire", lambda self, cycle: None
        )
        with pytest.raises(SimulationHangError) as excinfo:
            sim.run(5_000)
        snapshot = excinfo.value.snapshot
        assert snapshot.inflight > 0
        assert snapshot.stage_occupancy["rob"] > 0
        assert snapshot.oldest_instruction is not None
        assert "uid=" in snapshot.oldest_instruction


# ---------------------------------------------------------------------------
# Backend equivalence property (hypothesis)
# ---------------------------------------------------------------------------


class TestBackendEquivalenceProperty:
    """Random (config, workload, seed) triples: the optimized backend
    must reproduce the reference backend bit for bit — identical
    ``CoreStats`` and retire streams.  Each example runs both compiled
    loop variants: the *probe* variant (bus attached, both runs clean
    under the differential :class:`~repro.verify.Verifier`) and the
    *no-probe* variant every default run takes (no bus at all)."""

    WORKLOADS = (
        "int_test", "compress", "m88ksim", "swim",
        "go+su2cor", "apsi+swim", "pointer_chase",
    )

    @staticmethod
    def _stats_dict(stats):
        from dataclasses import fields

        out = {}
        for f in fields(stats):
            value = getattr(stats, f.name)
            if f.name == "per_thread":
                value = tuple(
                    tuple((g.name, getattr(t, g.name)) for g in fields(t))
                    for t in value
                )
            elif isinstance(value, dict):
                value = tuple(
                    sorted((str(k), v) for k, v in value.items())
                )
            elif isinstance(value, list):
                value = tuple(value)
            out[f.name] = value
        return out

    def _run_backend(self, backend, config, workload, seed, probed):
        from repro.core.backend import RetireStreamRecorder, get_backend
        from repro.obs.bus import EventBus
        from repro.verify import Verifier
        from repro.workloads import workload_profiles as resolve

        kernel = get_backend(backend)
        sim = kernel.build(config, resolve(workload), seed=seed)
        # same order as simulate(): warm up first — the verifier's
        # oracle snapshots generator positions when it attaches
        sim.functional_warmup(3000)
        verifier = bus = None
        if probed:
            bus = EventBus()
            verifier = Verifier()
            verifier.attach(sim, bus)
        recorder = RetireStreamRecorder()
        recorder.install(sim)
        if probed:
            sim.attach_obs(bus)
        stats = kernel.run(sim, 1200, warmup=200)
        if verifier is not None:
            verifier.finish(stats)
            verifier.raise_if_failed(context=f"{backend}/{workload}")
        return self._stats_dict(stats), recorder.stream

    import hypothesis
    import hypothesis.strategies as st

    @hypothesis.given(
        workload=st.sampled_from(WORKLOADS),
        dra=st.booleans(),
        rf=st.sampled_from((3, 5, 7)),
        recovery=st.sampled_from(("reissue", "stall", "refetch", "ssr")),
        memdep=st.sampled_from((None, "naive", "predict", "conservative")),
        fetch_policy=st.sampled_from(("icount", "round_robin")),
        slotting=st.sampled_from(("dependence", "round_robin")),
        ports=st.sampled_from(
            (None, "oldest_first", "operand_share", "banked")
        ),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @hypothesis.settings(max_examples=6, deadline=None)
    def test_reference_and_optimized_agree(
        self, workload, dra, rf, recovery, memdep, fetch_policy, slotting,
        ports, seed,
    ):
        from repro.core.config import PortConfig
        from repro.core.memdep import MemDepConfig, MemDepPolicy

        knobs = dict(
            load_recovery=LoadRecovery(recovery),
            memdep=(
                None if memdep is None
                else MemDepConfig(policy=MemDepPolicy(memdep))
            ),
            fetch_policy=fetch_policy,
            slotting=slotting,
        )
        if ports is not None:
            # 4 ports contend on every workload (16 is the full budget)
            knobs.update(
                rf_read_ports=4, ports=PortConfig(arbitration=ports)
            )
        config = (
            CoreConfig.with_dra(rf, **knobs) if dra
            else CoreConfig.base(rf, **knobs)
        )
        for probed in (True, False):
            variant = "probe" if probed else "no-probe"
            ref_stats, ref_stream = self._run_backend(
                "reference", config, workload, seed, probed
            )
            opt_stats, opt_stream = self._run_backend(
                "optimized", config, workload, seed, probed
            )
            diverged = [
                name for name in ref_stats
                if ref_stats[name] != opt_stats[name]
            ]
            assert not diverged, (
                f"CoreStats diverged on {diverged} for {workload} "
                f"{config.label} seed={seed} ({variant} variant)"
            )
            assert ref_stream == opt_stream, (
                f"retire streams diverged for {workload} {config.label} "
                f"seed={seed} ({variant} variant)"
            )
