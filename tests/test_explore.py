"""Tests for the design-space exploration subsystem (repro.explore)."""

import dataclasses
import json

import pytest

from repro.core import CoreConfig
from repro.core.config import DRAConfig
from repro.core.simulator import simulate
from repro.errors import ConfigError
from repro.explore import (
    AnalyticalPruner,
    ExplorationStore,
    HalvingSettings,
    HardwareCost,
    ParameterSpace,
    PruneSettings,
    build_frontier,
    diff_frontiers,
    discrete,
    dominates,
    dra_space,
    hardware_cost,
    int_range,
    mechanisms_space,
    named_space,
    pareto_frontier,
    predict_ipc,
    run_exploration,
    run_search,
    smoke_space,
)
from repro.explore.pareto import FrontierPoint
from repro.explore.scheduler import _select
from repro.harness import HarnessSettings
from repro.workloads import workload_profiles

WORKLOADS = ("compress", "swim")
#: Inline execution: these campaigns are tiny and fork overhead dominates.
INLINE = HarnessSettings(isolate="inline")
#: Tiny rung geometry used throughout (seconds, not minutes).
TINY = HalvingSettings(
    rungs=2, base_instructions=400, growth=3, warmup=8_000,
    detailed_warmup=200,
)


class TestSpace:
    def test_grid_is_exhaustive_and_ordered(self):
        space = smoke_space()
        grid = space.grid()
        labels = [c.label for c in grid]
        assert len(labels) == len(set(labels))
        assert len(grid) == space.size + len(space.baselines)
        assert grid == space.grid()  # deterministic order

    def test_sample_is_deterministic_and_distinct(self):
        space = dra_space()
        a = space.sample(5, seed=7)
        b = space.sample(5, seed=7)
        assert [c.label for c in a] == [c.label for c in b]
        sampled = [c for c in a if not c.pinned]
        assert len(sampled) == 5
        assert len({c.label for c in sampled}) == 5
        # different seed, different (or at least reproducibly ordered) draw
        c = space.sample(5, seed=8)
        assert [x.label for x in c] == [x.label for x in space.sample(5, 8)]

    def test_sample_falls_back_to_grid(self):
        space = smoke_space()
        assert [c.label for c in space.sample(10_000)] == \
            [c.label for c in space.grid()]

    def test_sample_keeps_baselines(self):
        space = dra_space()
        sampled = space.sample(2, seed=0)
        pinned = [c for c in sampled if c.pinned]
        assert len(pinned) == len(space.baselines)

    def test_signature_tracks_definition(self):
        assert smoke_space().signature() == smoke_space().signature()
        assert smoke_space().signature() != dra_space().signature()

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ConfigError):
            ParameterSpace(
                axes=[discrete("a", (1,)), discrete("a", (2,))],
                build=lambda values: CoreConfig.base(),
            )

    def test_int_range_axis(self):
        axis = int_range("n", 2, 8, step=2)
        assert axis.values == (2, 4, 6, 8)
        with pytest.raises(ConfigError):
            int_range("n", 5, 3)

    def test_named_space_resolution(self):
        assert named_space("smoke").name == "smoke"
        with pytest.raises(ConfigError):
            named_space("warp-drive")

    def test_candidate_value_lookup(self):
        candidate = smoke_space().grid()[0]
        assert candidate.value("rf") == 3
        with pytest.raises(KeyError):
            candidate.value("voltage")

    def test_stratify_axis_must_exist(self):
        with pytest.raises(ConfigError):
            ParameterSpace(
                axes=[discrete("a", (1,))],
                build=lambda values: CoreConfig.base(),
                stratify_by="b",
            )


class TestMechanismsSpace:
    def test_registered_and_enumerable(self):
        space = named_space("mechanisms")
        assert space.name == "mechanisms"
        assert space.stratify_by == "rf"
        grid = space.grid()
        labels = [c.label for c in grid]
        assert len(labels) == len(set(labels))
        # 3 rf latencies x 7 mechanism codes + 3 pinned base machines
        assert len(grid) == 24
        pinned = [c for c in grid if c.pinned]
        assert [c.label for c in pinned] == [
            "base,rf=3", "base,rf=5", "base,rf=7",
        ]

    def test_mechanism_codes_build_the_right_machines(self):
        from repro.core.config import LoadRecovery

        space = mechanisms_space()
        by_label = {c.label: c.config for c in space.grid()}
        dra = by_label["rf=5,mechanism=dra:8"]
        assert dra.dra is not None and dra.dra.crc_entries == 8
        ports = by_label["rf=5,mechanism=ports:8:share"]
        assert ports.dra is None
        assert ports.rf_read_ports == 8
        assert ports.ports.arbitration == "operand_share"
        banked = by_label["rf=7,mechanism=ports:8:banked"]
        assert banked.ports.arbitration == "banked"
        ssr = by_label["rf=3,mechanism=ssr:2"]
        assert ssr.load_recovery is LoadRecovery.SSR
        assert ssr.ssr_threshold == 2
        base = by_label["base,rf=5"]
        assert base == CoreConfig.base(5)

    def test_groups_are_per_rf_and_family(self):
        space = mechanisms_space()
        groups = {c.label: c.group for c in space.grid()}
        assert groups["rf=5,mechanism=ports:8"] == "rf5:ports"
        assert groups["rf=5,mechanism=ports:8:banked"] == "rf5:ports"
        assert groups["rf=5,mechanism=ssr:2"] == "rf5:ssr"
        assert groups["base,rf=5"] == "rf5:base"

    def test_unknown_mechanism_code_rejected(self):
        from repro.explore.space import _build_mechanism

        with pytest.raises(ConfigError):
            _build_mechanism(5, "warp:9")
        with pytest.raises(ConfigError):
            _build_mechanism(5, "ports:8:holographic")

    def test_stratified_frontier_keeps_per_rf_winners(self):
        space = mechanisms_space()
        by_label = {c.label: c for c in space.grid()}
        # rf3's machine strictly beats rf5's in IPC and every cost axis;
        # globally it would shadow rf5, stratified it must not
        scored = [
            (by_label["rf=3,mechanism=ports:8"], 1.2),
            (by_label["rf=5,mechanism=ports:8"], 1.0),
        ]
        report = build_frontier(scored, stratify_by=space.stratify_by)
        assert {p.label for p in report.frontier} == {
            "rf=3,mechanism=ports:8", "rf=5,mechanism=ports:8",
        }
        unstratified = build_frontier(scored)
        assert {p.label for p in unstratified.frontier} == {
            "rf=3,mechanism=ports:8",
        }

    def test_hardware_cost_prices_each_mechanism_currency(self):
        from repro.core.config import LoadRecovery, PortConfig

        reduced = hardware_cost(CoreConfig.base(
            5, rf_read_ports=8,
            ports=PortConfig(arbitration="operand_share"),
        ))
        assert reduced.crc_entries_total == 0
        assert reduced.rf_read_ports == 8
        ssr = hardware_cost(CoreConfig.base(
            5, load_recovery=LoadRecovery.SSR, ssr_threshold=4,
        ))
        # SSR buys nothing in hardware: it pays in held issue slots
        assert ssr == hardware_cost(CoreConfig.base(5))

    def test_tiny_mechanisms_exploration_has_non_dra_frontier(self):
        space = mechanisms_space(
            rf_latencies=(5, 7),
            mechanisms=("dra:16", "ports:8", "ssr:6"),
        )
        result = run_exploration(
            space,
            workloads=("int_test",),
            halving=HalvingSettings(
                rungs=2, base_instructions=400, growth=3, warmup=8_000,
                detailed_warmup=200, backend="optimized",
            ),
            harness=INLINE,
            prune=False,
        )
        non_dra = [
            p for p in result.frontier.frontier
            if p.candidate.config.dra is None and not p.candidate.pinned
            and p.candidate.value("rf") in (5, 7)
        ]
        assert non_dra, (
            "stratified mechanisms frontier lost every non-DRA point "
            "at rf 5/7"
        )
        assert result.ordering(), "base and non-base must reach the end"


class TestPareto:
    def test_dominates_requires_difference(self):
        cost = HardwareCost(16, 8, 7)
        space = smoke_space()
        c = space.grid()[0]
        a = FrontierPoint(candidate=c, ipc=1.0, cost=cost)
        b = FrontierPoint(candidate=c, ipc=1.0, cost=cost)
        # identical objective vectors tie: neither dominates
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_exact_ties_all_kept(self):
        space = smoke_space()
        candidates = [c for c in space.grid()][:3]
        cost = HardwareCost(16, 8, 7)
        points = [
            FrontierPoint(candidate=c, ipc=1.0, cost=cost)
            for c in candidates
        ]
        frontier = pareto_frontier(points)
        assert len(frontier) == 3

    def test_single_axis_degeneration(self):
        # equal hardware cost everywhere: the frontier is the argmax set
        space = smoke_space()
        candidates = [c for c in space.grid()][:3]
        cost = HardwareCost(16, 8, 7)
        ipcs = (0.9, 1.1, 1.1)
        points = [
            FrontierPoint(candidate=c, ipc=ipc, cost=cost)
            for c, ipc in zip(candidates, ipcs)
        ]
        frontier = pareto_frontier(points)
        assert sorted(p.ipc for p in frontier) == [1.1, 1.1]

    def test_strict_domination_drops_point(self):
        space = smoke_space()
        a, b = space.grid()[:2]
        pa = FrontierPoint(candidate=a, ipc=1.2, cost=HardwareCost(8, 8, 7))
        pb = FrontierPoint(candidate=b, ipc=1.0, cost=HardwareCost(16, 8, 9))
        assert dominates(pa, pb)
        assert not dominates(pb, pa)
        assert pareto_frontier([pa, pb]) == [pa]

    def test_hardware_cost_base_vs_dra(self):
        base = hardware_cost(CoreConfig.base(3))
        dra = hardware_cost(
            CoreConfig.with_dra(3, dra=DRAConfig(crc_entries=16))
        )
        assert base.crc_entries_total == 0
        assert dra.crc_entries_total > 0
        # the DRA's whole point: fewer issue-path register-file ports
        assert dra.rf_read_ports < base.rf_read_ports

    def test_build_frontier_report_roundtrip(self):
        space = smoke_space()
        scored = [(c, 1.0 + 0.01 * i) for i, c in enumerate(space.grid())]
        report = build_frontier(scored)
        payload = json.loads(report.dumps())
        assert payload["frontier"]
        labels = {p["label"] for p in payload["frontier"]}
        assert labels == {p.candidate.label for p in report.frontier}


class TestScheduler:
    def test_settings_validation(self):
        with pytest.raises(ConfigError):
            HalvingSettings(rungs=0)
        with pytest.raises(ConfigError):
            HalvingSettings(eta=1)
        with pytest.raises(ConfigError):
            HalvingSettings(budget=0)

    def test_rung_geometry(self):
        settings = HalvingSettings(rungs=3, base_instructions=100, growth=4)
        assert [settings.rung_instructions(k) for k in range(3)] == \
            [100, 400, 1600]
        assert settings.final_instructions == 1600

    def test_select_is_grouped_and_keeps_pins(self):
        space = dra_space(rf_latencies=(3, 5), crc_sizes=(8, 16),
                          insertion_policies=("filtered",))
        alive = space.grid()
        scores = {c.label: 1.0 + 0.01 * i for i, c in enumerate(alive)}
        survivors = _select(alive, scores, eta=2)
        labels = [c.label for c in survivors]
        # every pinned baseline survives
        for c in alive:
            if c.pinned:
                assert c.label in labels
        # each rf group keeps ceil(2/2)=1 contender
        for rf in (3, 5):
            group = [l for l in labels
                     if l.startswith(f"rf={rf}") and "base" not in l]
            assert len(group) == 1

    def test_select_breaks_ties_by_label(self):
        space = smoke_space()
        alive = [c for c in space.grid() if not c.pinned]
        scores = {c.label: 1.0 for c in alive}
        survivors = _select(alive, scores, eta=4)
        assert [c.label for c in survivors] == \
            [sorted(c.label for c in alive)[0]]

    def test_search_is_deterministic(self):
        candidates = smoke_space().grid()
        a = run_search(candidates, WORKLOADS, TINY, INLINE)
        b = run_search(candidates, WORKLOADS, TINY, INLINE)
        assert [r.to_json() for r in a.rungs] == \
            [r.to_json() for r in b.rungs]
        assert a.final_scores == b.final_scores
        assert a.spent_instructions == b.spent_instructions

    def test_search_runs_all_rungs_and_spends(self):
        candidates = smoke_space().grid()
        result = run_search(candidates, ("compress",), TINY, INLINE)
        assert len(result.rungs) == TINY.rungs
        assert not result.truncated
        expected_rung0 = TINY.base_instructions * len(candidates)
        assert result.rungs[0].instructions_spent == expected_rung0
        assert result.spent_instructions == \
            sum(r.instructions_spent for r in result.rungs)

    def test_budget_truncates_ladder(self):
        candidates = smoke_space().grid()
        rung0 = TINY.base_instructions * len(candidates)
        budgeted = HalvingSettings(
            rungs=2, base_instructions=TINY.base_instructions, growth=3,
            warmup=TINY.warmup, detailed_warmup=TINY.detailed_warmup,
            budget=rung0 + 1,
        )
        result = run_search(candidates, ("compress",), budgeted, INLINE)
        assert result.truncated
        assert len(result.rungs) == 1
        # the answer degrades to the funded rung's survivors
        assert result.final_scores
        assert result.spent_instructions <= budgeted.budget

    def test_backend_takes_one_spec_per_rung(self):
        # sampled triage at rung 0; the last spec repeats for the rest
        settings = dataclasses.replace(
            HalvingSettings.quick(), backend="sampled,optimized")
        result = run_search(smoke_space().grid(), ("compress",), settings,
                            INLINE)
        assert not result.failures
        assert [r.backend for r in result.rungs] == ["sampled", "optimized"]
        assert settings.rung_backend(5) == "optimized"

    def test_duplicate_labels_rejected(self):
        candidates = smoke_space().grid()
        with pytest.raises(ConfigError):
            run_search(candidates + candidates[:1], ("compress",), TINY,
                       INLINE)


class TestPrune:
    def test_predict_monotonic_in_rf_latency(self):
        profiles = workload_profiles("compress")
        fast, _ = predict_ipc(CoreConfig.base(3), profiles)
        slow, _ = predict_ipc(CoreConfig.base(7), profiles)
        assert fast > slow

    def test_filtered_predicted_above_always(self):
        profiles = workload_profiles("compress")
        filtered, _ = predict_ipc(
            CoreConfig.with_dra(3, dra=DRAConfig(crc_entries=8)), profiles
        )
        always, _ = predict_ipc(
            CoreConfig.with_dra(
                3, dra=DRAConfig(crc_entries=8, insertion_policy="always")
            ),
            profiles,
        )
        assert filtered > always

    def test_pinned_candidates_never_pruned(self):
        pruner = AnalyticalPruner(WORKLOADS)
        kept, _ = pruner.filter(dra_space().grid())
        kept_labels = {c.label for c in kept}
        for baseline in dra_space().baselines:
            assert baseline.label in kept_labels

    def test_zero_margin_rejected_only_when_negative(self):
        PruneSettings(margin=0.0)
        with pytest.raises(ConfigError):
            PruneSettings(margin=-0.1)

    def test_calibration_records_errors(self):
        pruner = AnalyticalPruner(("compress",))
        candidate = smoke_space().grid()[0]
        pruner.record(candidate, measured_ipc=1.0)
        calibration = pruner.calibration()
        assert calibration["count"] == 1
        assert calibration["records"][0]["label"] == candidate.label

    @pytest.mark.parametrize("space", [
        smoke_space(),
        dra_space(rf_latencies=(3, 5), crc_sizes=(8, 16)),
    ], ids=["smoke", "dra-2x2x2"])
    def test_prune_never_discards_a_frontier_point(self, space):
        """Property: the measured Pareto frontier survives pruning.

        Every grid point is simulated at small (but non-noise) fidelity;
        the frontier of the *full* measured grid must be a subset of the
        pruner's keep set, and every pruned point must be weakly
        dominated in measurement by some kept point.
        """
        grid = space.grid()
        measured = {}
        for candidate in grid:
            ipcs = [
                simulate(workload, candidate.config, instructions=2_000,
                         warmup=15_000, detailed_warmup=300, seed=0).ipc
                for workload in WORKLOADS
            ]
            measured[candidate.label] = sum(ipcs) / len(ipcs)
        pruner = AnalyticalPruner(WORKLOADS)
        kept, pruned = pruner.filter(grid)
        assert pruned, "the property is vacuous if nothing is pruned"
        kept_labels = {c.label for c in kept}
        frontier = build_frontier(
            [(c, measured[c.label]) for c in grid]
        ).frontier
        for point in frontier:
            assert point.candidate.label in kept_labels
        for decision in pruned:
            candidate = decision.candidate
            assert any(
                measured[k.label] >= measured[candidate.label]
                and hardware_cost(k.config).dominates_cost(
                    hardware_cost(candidate.config)
                )
                for k in kept
            ), f"{candidate.label} was pruned but not dominated"


class TestStore:
    def _record(self, frontier):
        return {
            "space": "abc123",
            "frontier": [
                {"label": label, "ipc": ipc} for label, ipc in frontier
            ],
        }

    def test_append_and_history(self, tmp_path):
        store = ExplorationStore(tmp_path)
        assert len(store) == 0
        v0 = store.append(self._record([("a", 1.0)]))
        v1 = store.append(self._record([("a", 1.01)]))
        assert (v0, v1) == (0, 1)
        history = store.history()
        assert [r["version"] for r in history] == [0, 1]
        assert store.latest("abc123")["version"] == 1
        assert store.latest("nope") is None

    def test_corrupt_line_surfaces(self, tmp_path):
        store = ExplorationStore(tmp_path)
        store.append(self._record([("a", 1.0)]))
        with open(store.path, "a") as handle:
            handle.write("not json\n")
        with pytest.raises(ConfigError):
            store.history()

    def test_diff_flags_changes_and_regressions(self):
        old = self._record([("a", 1.0), ("b", 0.9)])
        new = self._record([("a", 0.9), ("c", 1.1)])
        diff = diff_frontiers(old, new)
        assert diff.added == ["c"]
        assert diff.dropped == ["b"]
        assert "a" in diff.regressions
        assert "a" in diff.verdicts
        assert not diff.clean
        assert "REGRESSION" in diff.describe()

    def test_diff_reports_improvements(self):
        old = self._record([("a", 1.0)])
        new = self._record([("a", 1.1)])
        diff = diff_frontiers(old, new)
        assert diff.clean  # improvements never fail the diff
        assert diff.improvements == {"a": (1.0, 1.1)}
        assert "IMPROVEMENT" in diff.describe()

    def test_diff_tolerates_small_drift(self):
        old = self._record([("a", 1.000)])
        new = self._record([("a", 0.995)])
        diff = diff_frontiers(old, new)
        assert diff.clean
        assert not diff.improvements

    def test_diff_band_calibrates_from_series(self):
        # A 1.5% drop hides inside the fixed 2% fallback band, but a
        # quiet history gives the statistical detector a much tighter
        # band — the same drop becomes a finding.
        old = self._record([("a", 1.000)])
        new = self._record([("a", 0.985)])
        assert diff_frontiers(old, new).clean
        quiet = {"a": [1.0001, 0.9999, 1.0002, 0.9998, 1.0]}
        flagged = diff_frontiers(old, new, series=quiet)
        assert "a" in flagged.regressions

    def test_frontier_series_tracks_labels_per_space(self, tmp_path):
        store = ExplorationStore(tmp_path)
        store.append(self._record([("a", 1.0), ("b", 0.9)]))
        store.append(self._record([("a", 1.1)]))
        other = self._record([("a", 5.0)])
        other["space"] = "other-space"
        store.append(other)
        series = store.frontier_series(self._record([])["space"])
        assert series == {"a": [1.0, 1.1], "b": [0.9]}


class TestEngine:
    def test_smoke_exploration_end_to_end(self, tmp_path):
        result = run_exploration(
            smoke_space(),
            workloads=WORKLOADS,
            halving=TINY,
            harness=INLINE,
            store_dir=tmp_path / "ledger",
            bench_out=tmp_path / "BENCH_explore.json",
        )
        assert result.frontier.frontier, "frontier must be non-empty"
        assert result.ordering(), "base + DRA must reach the final rung"
        assert result.ledger_version == 0
        assert 0.0 < result.savings_fraction < 1.0
        bench = json.loads((tmp_path / "BENCH_explore.json").read_text())
        assert bench["schema"] == 1
        assert bench["frontier_size"] == len(result.frontier.frontier)
        assert bench["savings_fraction"] == pytest.approx(
            result.savings_fraction
        )

    def test_second_exploration_diffs_ledger(self, tmp_path):
        kwargs = dict(
            workloads=("compress",), halving=TINY, harness=INLINE,
            store_dir=tmp_path / "ledger",
        )
        first = run_exploration(smoke_space(), **kwargs)
        second = run_exploration(smoke_space(), **kwargs)
        assert first.ledger_diff is None
        assert second.ledger_version == 1
        assert second.ledger_diff is not None
        # identical settings: the frontier reproduces, so the diff is clean
        assert second.ledger_diff.clean

    def test_exploration_without_prune_or_store(self):
        result = run_exploration(
            smoke_space(), workloads=("compress",), halving=TINY,
            harness=INLINE, prune=False,
        )
        assert not result.pruned
        assert result.calibration == {"count": 0}
        assert result.ledger_version is None

    def test_render_mentions_the_essentials(self, tmp_path):
        result = run_exploration(
            smoke_space(), workloads=WORKLOADS, halving=TINY,
            harness=INLINE, store_dir=tmp_path,
        )
        text = result.render()
        assert "Pareto" in text or "frontier" in text
        assert "saved" in text
        assert "rung 0" in text
