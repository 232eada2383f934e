"""Tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "swim"])
        assert args.workload == "swim"
        assert not args.dra
        assert args.rf == 3

    def test_run_rejects_unknown_workload(self, capsys):
        # trace:<path> names are open-ended, so rejection happens at
        # resolution time, not in argparse; <base>@<pattern> is no
        # workload syntax at all
        for name in ("doom3", "int_test@bursty"):
            assert main(["run", name]) == 2
            assert "unknown workload" in capsys.readouterr().err

    def test_fig_commands_registered(self):
        for name in ("fig4", "fig5", "fig6", "fig8", "fig9"):
            args = build_parser().parse_args([name])
            assert args.figure == name

    def test_rf_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "swim", "--rf", "4"])

    def test_explore_backend_takes_one_spec_per_rung(self, monkeypatch):
        import repro.explore as explore

        class Captured(Exception):
            pass

        def capture(space, halving, **kwargs):
            raise Captured(halving)

        monkeypatch.setattr(explore, "run_exploration", capture)
        with pytest.raises(Captured) as caught:
            main(["explore", "--backend", "sampled,optimized"])
        halving = caught.value.args[0]
        assert halving.backend == "sampled,optimized"
        assert [halving.rung_backend(k) for k in range(3)] == \
            ["sampled", "optimized", "optimized"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore", "--rung-backends", "sampled"])


class TestCommands:
    def test_workloads_lists_everything(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "swim" in out
        assert "go+su2cor" in out

    def test_loops_inventory(self, capsys):
        assert main(["loops", "--dra", "--rf", "5"]) == 0
        out = capsys.readouterr().out
        assert "operand_resolution" in out
        assert "21264_branch_resolution" in out

    def test_run_executes_simulation(self, capsys):
        assert main(["run", "m88ksim", "--instructions", "600"]) == 0
        out = capsys.readouterr().out
        assert "ipc" in out
        assert "m88ksim" in out

    def test_run_with_dra_prints_operand_sources(self, capsys):
        assert main([
            "run", "m88ksim", "--dra", "--rf", "5", "--instructions", "600",
        ]) == 0
        out = capsys.readouterr().out
        assert "operand preread" in out

    def test_run_with_recovery_policy(self, capsys):
        assert main([
            "run", "m88ksim", "--recovery", "stall", "--instructions", "400",
        ]) == 0

    def test_fig6_renders(self, capsys):
        assert main(["fig6", "--instructions", "1000"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out

    def test_fig4_with_subset(self, capsys):
        assert main([
            "fig4", "--workloads", "m88ksim", "--instructions", "800",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "m88ksim" in out


class TestHarnessFlags:
    def test_campaign_flags_parse(self):
        args = build_parser().parse_args([
            "fig4", "--jobs", "2", "--cell-timeout", "5",
            "--cache-dir", "/tmp/loopsim-cache",
        ])
        assert args.jobs == 2
        assert args.cell_timeout == 5.0
        assert args.cache_dir == "/tmp/loopsim-cache"

    def test_resume_is_serve_only(self, capsys):
        # campaigns and explore resume from --cache-dir alone; serve's
        # --resume replays its journal
        for command in ("fig4", "ablations", "explore"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args([command, "--resume"])
            assert excinfo.value.code == 2
        assert "--resume" in capsys.readouterr().err
        assert build_parser().parse_args(["serve", "--resume"]).resume

    def test_flags_default_off(self):
        args = build_parser().parse_args(["fig5"])
        assert args.jobs == 1
        assert args.cell_timeout is None
        assert args.cache_dir is None
        assert not args.verify

    def test_campaign_verify_flag(self):
        args = build_parser().parse_args(["fig4", "--verify"])
        assert args.verify

    def test_verify_subcommand_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.workload == "int_test"
        assert not args.differential
        assert not args.fuzz
        assert args.budget == 30.0

    def test_verify_sweep_runs_clean(self, capsys):
        assert main([
            "verify", "--instructions", "600",
        ]) == 0
        out = capsys.readouterr().out
        assert "alpha21264" in out
        assert "pentium4" in out
        assert "ok" in out
        assert "FAIL" not in out

    def test_verify_fuzz_injection_self_test(self, capsys, tmp_path):
        """Finding a planted bug is the passing outcome for --inject."""
        out_path = str(tmp_path / "case.json")
        assert main([
            "verify", "--fuzz", "--budget", "45",
            "--inject", "skip-reissue", "--out", out_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert main(["verify", "--replay", out_path]) == 1
        replay_out = capsys.readouterr().out
        assert "still failing" in replay_out


class TestErrorHandling:
    def test_unknown_workload_exits_2_with_valid_list(self, capsys):
        assert main(["fig4", "--workloads", "doom3"]) == 2
        err = capsys.readouterr().err
        assert "doom3" in err
        assert "unknown workload" in err

    def test_invalid_instruction_count_exits_2(self, capsys):
        assert main(["run", "m88ksim", "--instructions", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_cached_figure_resumes_from_cache_dir(
        self, capsys, tmp_path, monkeypatch
    ):
        argv = [
            "fig6", "--instructions", "600",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        # The persistent cache now holds the cell, so the second run
        # reproduces the figure from disk without simulating.
        from repro.harness import executor as executor_mod
        calls = []
        real = executor_mod._simulate_cell
        monkeypatch.setattr(
            executor_mod, "_simulate_cell",
            lambda cell, **kw: calls.append(cell) or real(cell, **kw),
        )
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert calls == []
        assert any(tmp_path.glob("*/*.pkl"))


def _failed_label(line: str) -> str:
    """The cell label a failure-report line starts with."""
    return line.split(": ", 1)[0].strip()


def _cheap_campaigns(monkeypatch):
    """Shrink the CLI's warmup, so a campaign of every ablation study
    stays cheap (tests also take ``no_backoff``)."""
    import dataclasses

    import repro.__main__ as cli

    settings = cli._settings
    monkeypatch.setattr(
        cli, "_settings",
        lambda args: dataclasses.replace(
            settings(args), warmup=2_000, detailed_warmup=80
        ),
    )


@pytest.mark.usefixtures("no_backoff")
class TestAblations:
    def test_prints_all_ten_studies(self, capsys, monkeypatch):
        _cheap_campaigns(monkeypatch)
        assert main([
            "ablations", "--instructions", "250", "--workloads", "swim",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("Ablation:") == 10
        assert "Ablation: branch direction predictor" in out
        assert "failed" not in out

    def test_failed_cells_exit_1_with_one_report(self, capsys, monkeypatch):
        # every cell crashes before it simulates, so this stays cheap
        _cheap_campaigns(monkeypatch)
        monkeypatch.setenv("REPRO_FAULTS", "crash|swim|*|*|99")
        assert main([
            "ablations", "--instructions", "250", "--workloads", "swim",
        ]) == 1
        out = capsys.readouterr().out
        assert out.count("Ablation:") == 10
        assert "n/a" in out
        assert out.count("cell(s) failed") == 1
        assert "30 cell(s) failed" in out
        # each failed cell is named apart, even where configs share a
        # pipeline label (the label carries a key suffix)
        labels = [_failed_label(line)
                  for line in out.splitlines() if "CellCrashError" in line]
        assert len(labels) == len(set(labels)) == 30

    def test_key_prefix_fails_one_of_the_cells_sharing_a_label(
        self, capsys, monkeypatch
    ):
        # 19 swim cells share the label swim/Base:5_5/seed0; a fault on
        # the key prefix that ends one's label fails that cell alone
        _cheap_campaigns(monkeypatch)
        argv = ["ablations", "--instructions", "250", "--workloads", "swim"]
        monkeypatch.setenv("REPRO_FAULTS", "crash|swim|*|*|99")
        assert main(argv) == 1
        shared = [_failed_label(line)
                  for line in capsys.readouterr().out.splitlines()
                  if "swim/Base:5_5/seed0#" in line]
        assert len(shared) == len(set(shared)) == 19
        target = shared[7]
        prefix = target[target.index("#"):]
        monkeypatch.setenv("REPRO_FAULTS", f"crash|swim|{prefix}|*|99")
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert out.count("Ablation:") == 10
        assert "1 cell(s) failed" in out
        assert [_failed_label(line) for line in out.splitlines()
                if "CellCrashError" in line] == [target]
