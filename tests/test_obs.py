"""Tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro import CoreConfig, simulate
from repro.obs import (
    EventBus,
    MetricsCollector,
    MetricsRegistry,
)
from repro.obs.attribution import (
    BRANCH_LOOP,
    LOAD_LOOP,
    OPERAND_LOOP,
    OTHER,
    PORT_PRESSURE,
    LoopAttribution,
)
from repro.obs.events import (
    FetchEvent,
    IssueEvent,
    RetireEvent,
)
from repro.obs.export import ChromeTraceExporter, JsonlExporter, result_snapshot
from repro.obs.metrics import Counter, Histogram, TimeSeries


SIM_KW = dict(instructions=1500, warmup=5_000, detailed_warmup=200, seed=3)


def traced_run(workload="m88ksim", config=None, **subscribe):
    """Run one small simulation with a bus and standard subscribers."""
    config = config or CoreConfig.base()
    bus = EventBus()
    attached = {}
    if subscribe.get("metrics", True):
        attached["metrics"] = MetricsCollector(bus)
    if subscribe.get("attribution", True):
        attached["attribution"] = LoopAttribution(bus, config)
    result = simulate(workload, config, obs=bus, **SIM_KW)
    return result, bus, attached


class TestEventBus:
    def test_typed_subscription_receives_only_that_type(self):
        bus = EventBus()
        got = []
        bus.subscribe(FetchEvent, got.append)
        fetch = FetchEvent(cycle=1, uid=1, thread=0, pc=0x40, opclass="alu")
        bus.emit(fetch)
        bus.emit(RetireEvent(cycle=2, uid=1, thread=0))
        assert got == [fetch]
        assert bus.events_emitted == 2

    def test_wildcard_subscription_receives_everything(self):
        bus = EventBus()
        got = []
        bus.subscribe(None, got.append)
        bus.emit(FetchEvent(cycle=1, uid=1, thread=0, pc=0, opclass="alu"))
        bus.emit(RetireEvent(cycle=2, uid=1, thread=0))
        assert len(got) == 2

    def test_unsubscribe(self):
        bus = EventBus()
        got = []
        bus.subscribe(RetireEvent, got.append)
        bus.unsubscribe(RetireEvent, got.append)
        bus.emit(RetireEvent(cycle=1, uid=1, thread=0))
        assert got == []

    def test_subscriber_count(self):
        bus = EventBus()
        assert bus.subscriber_count == 0
        bus.subscribe(RetireEvent, lambda e: None)
        bus.subscribe(None, lambda e: None)
        assert bus.subscriber_count == 2

    def test_event_to_dict_carries_kind(self):
        record = IssueEvent(cycle=7, uid=3, thread=1, epoch=2).to_dict()
        assert record == {
            "kind": "issue", "cycle": 7, "uid": 3, "thread": 1, "epoch": 2,
        }


class TestMetricInstruments:
    def test_counter(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.snapshot() == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_histogram_quantiles(self):
        hist = Histogram("h")
        for value in (1, 2, 3, 4, 5):
            hist.observe(value)
        assert hist.mean == pytest.approx(3.0)
        assert hist.quantile(0.5) == 3
        assert hist.quantile(1.0) == 5
        assert hist.max == 5
        snap = hist.snapshot()
        assert snap["count"] == 5.0
        assert snap["p50"] == 3.0

    def test_histogram_empty(self):
        hist = Histogram("h")
        assert hist.mean == 0.0
        assert hist.quantile(0.5) == 0
        assert hist.snapshot()["count"] == 0.0

    def test_timeseries_ring_buffer(self):
        series = TimeSeries("t", capacity=2)
        series.sample(1, 0.5)
        series.sample(2, 0.6)
        series.sample(3, 0.7)
        assert series.samples() == [(2, 0.6), (3, 0.7)]
        assert series.dropped == 1
        assert series.snapshot()["count"] == 3.0

    def test_registry_get_or_create_and_type_conflict(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        with pytest.raises(TypeError):
            registry.histogram("a")

    def test_registry_snapshot_flattens(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(3)
        registry.histogram("h").observe(2)
        snap = registry.snapshot()
        assert snap["n"] == 3
        assert snap["h.count"] == 1.0
        assert "h.p50" in snap


class TestZeroOverhead:
    def test_traced_run_is_bit_identical(self):
        baseline = simulate("m88ksim", CoreConfig.base(), **SIM_KW)
        traced, bus, _ = traced_run("m88ksim")
        assert traced.ipc == baseline.ipc
        assert traced.stats.cycles == baseline.stats.cycles
        assert bus.events_emitted > 0

    def test_no_bus_means_no_probes(self):
        result = simulate("m88ksim", CoreConfig.base(), **SIM_KW)
        # without obs= the simulator never sees a bus and the snapshot
        # field stays unset
        assert result.stats.obs_snapshot is None


class TestMetricsCollector:
    @pytest.mark.parametrize("config", [
        CoreConfig.base(), CoreConfig.with_dra(),
    ], ids=["base", "dra"])
    def test_event_counts_reconcile_with_core_stats(self, config):
        result, _, attached = traced_run("go", config)
        mismatches = attached["metrics"].verify_against(result.stats)
        assert mismatches == []

    def test_snapshot_into_stats(self):
        result, _, attached = traced_run()
        snap = attached["metrics"].snapshot_into(result.stats)
        assert result.stats.obs_snapshot is snap
        assert snap["obs.retired"] == result.stats.retired
        assert snap["obs.cycles"] == result.stats.cycles
        assert snap["obs.inst.lifetime_cycles.count"] > 0

    def test_dra_run_counts_operand_sources(self):
        result, _, attached = traced_run("swim", CoreConfig.with_dra())
        snap = attached["metrics"].snapshot()
        sourced = sum(
            value for key, value in snap.items()
            if key.startswith("obs.operand.") and key != "obs.operand.regfile"
        )
        assert sourced > 0
        assert "obs.operand.regfile" not in snap


class TestAttribution:
    @pytest.mark.parametrize("config", [
        CoreConfig.base(), CoreConfig.with_dra(),
    ], ids=["base", "dra"])
    def test_reconciliation(self, config):
        result, _, attached = traced_run("go", config)
        report = attached["attribution"].report(
            result.stats, workload="go", config_label=config.label
        )
        # every attributed cycle lands in exactly one bucket
        assert report.reconciles
        assert report.useful_cycles + report.lost_cycles == report.total_cycles
        assert report.total_cycles > 0
        names = {entry.name for entry in report.entries}
        assert names == {
            BRANCH_LOOP, LOAD_LOOP, OPERAND_LOOP, PORT_PRESSURE, OTHER,
        }

    def test_branch_loop_is_active(self):
        result, _, attached = traced_run("go")
        report = attached["attribution"].report(result.stats)
        branch = report.entry(BRANCH_LOOP)
        assert branch.occurrences > 0
        assert branch.misspeculations > 0
        assert 0.0 < branch.misspeculation_rate < 1.0
        assert branch.loop_delay > 0

    def test_operand_loop_only_under_dra(self):
        _, _, base = traced_run("go", CoreConfig.base())
        _, _, dra = traced_run("go", CoreConfig.with_dra())
        assert base["attribution"].report().entry(OPERAND_LOOP).occurrences == 0
        assert dra["attribution"].report().entry(OPERAND_LOOP).occurrences > 0

    def test_report_renders_and_serialises(self):
        result, _, attached = traced_run("go")
        report = attached["attribution"].report(
            result.stats, workload="go", config_label="Base:5_5"
        )
        text = report.render()
        assert "reconciles" in text
        assert "DOES NOT" not in text
        payload = report.to_dict()
        assert payload["workload"] == "go"
        assert len(payload["loops"]) == 5
        json.dumps(payload)  # must be JSON-clean

    def test_lost_ipc_sums_to_sensible_range(self):
        result, _, attached = traced_run("go")
        report = attached["attribution"].report(result.stats)
        for entry in report.entries:
            assert report.lost_ipc(entry.name) >= 0.0

    def test_port_pressure_bucket_reconciles_when_starved(self):
        config = CoreConfig.base(5, rf_read_ports=4)
        result, _, attached = traced_run("go", config)
        report = attached["attribution"].report(result.stats)
        assert report.reconciles
        port = report.entry(PORT_PRESSURE)
        # the occurrence count is exactly the kernel's dropped-issue
        # counter — the stat this PR stops losing
        assert port.occurrences == result.stats.port_stalls
        assert port.occurrences > 0
        assert attached["metrics"].verify_against(result.stats) == []

    def test_port_pressure_silent_with_full_ports(self):
        result, _, attached = traced_run("go", CoreConfig.base(5))
        report = attached["attribution"].report(result.stats)
        assert result.stats.port_stalls == 0
        assert report.entry(PORT_PRESSURE).occurrences == 0


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        config = CoreConfig.base()
        bus = EventBus()
        with JsonlExporter(bus, str(path)) as exporter:
            simulate("m88ksim", config, obs=bus, **SIM_KW)
        assert exporter.events_written > 0
        lines = path.read_text().splitlines()
        assert len(lines) == exporter.events_written
        kinds = {json.loads(line)["kind"] for line in lines}
        assert {"fetch", "issue", "retire", "cycle"} <= kinds

    def test_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        config = CoreConfig.base()
        bus = EventBus()
        exporter = ChromeTraceExporter(bus)
        simulate("m88ksim", config, obs=bus, **SIM_KW)
        count = exporter.write(str(path))
        assert count > 0
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert len(events) == count
        slices = [e for e in events if e.get("ph") == "X"]
        assert slices
        # cycle timestamps are monotone non-negative and slices have
        # positive duration
        assert all(e["ts"] >= 0 and e["dur"] >= 1 for e in slices)

    def test_result_snapshot(self):
        result, _, attached = traced_run("swim", CoreConfig.with_dra())
        attached["metrics"].snapshot_into(result.stats)
        snapshot = result_snapshot(result)
        assert snapshot["workload"] == "swim"
        assert snapshot["ipc"] == result.ipc
        assert snapshot["loops"]
        assert "operand_sources" in snapshot
        assert snapshot["metrics"]["obs.retired"] == result.stats.retired
        json.dumps(snapshot)


class TestCLI:
    def test_trace_out_chrome(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "t.json"
        assert main([
            "run", "int_test", "--instructions", "800",
            "--trace-out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["traceEvents"]
        assert "trace" in capsys.readouterr().out

    def test_trace_out_jsonl(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "t.jsonl"
        assert main([
            "run", "int_test", "--instructions", "800",
            "--trace-out", str(out),
        ]) == 0
        first = out.read_text().splitlines()[0]
        assert "kind" in json.loads(first)

    def test_attribute_subcommand(self, capsys):
        from repro.__main__ import main

        assert main([
            "attribute", "int_test", "--instructions", "800", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "Measured loop attribution" in out
        assert "reconciles" in out
