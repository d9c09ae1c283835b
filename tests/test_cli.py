"""Tests for the command-line interface."""

import pytest

from repro import obs
from repro.cache import (
    DEFAULTS,
    set_default_admission_min_cost,
    set_default_policy,
)
from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_all_commands_have_subparsers(self):
        parser = build_parser()
        for name in COMMANDS:
            args = parser.parse_args([name])
            assert args.command == name

    def test_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["fig11"])
        assert args.rdd_counts == [1, 2, 3, 4, 5, 6]
        args = parser.parse_args(["fig19", "--rates", "2", "5"])
        assert args.rates == [2.0, 5.0]


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in COMMANDS:
            assert name in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "fig11" in capsys.readouterr().out

    def test_fig17_runs(self, capsys):
        assert main(["fig17", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig 17" in out
        assert "jall" in out

    def test_fig07_runs(self, capsys):
        assert main(["fig07", "--partitions", "1", "8"]) == 0
        assert "Fig 7" in capsys.readouterr().out

    def test_cache_runs(self, capsys):
        assert main(["cache", "--policies", "lru", "lrc",
                     "--iterations", "4"]) == 0
        out = capsys.readouterr().out
        assert "Cache policies" in out
        assert "lrc" in out
        assert "faster than lru" in out

    def test_global_cache_flags_set_defaults(self):
        try:
            assert main(["--cache-policy", "lrc",
                         "--cache-admission-min-cost", "0.2", "list"]) == 0
            assert DEFAULTS.policy == "lrc"
            assert DEFAULTS.admission_min_cost == 0.2
        finally:
            set_default_policy("lru")
            set_default_admission_min_cost(0.0)

    def test_unknown_cache_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["--cache-policy", "belady", "list"])


class TestElasticCli:
    def test_elastic_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["elastic"])
        assert args.min_workers == 2
        assert args.max_workers == 8
        assert sorted(args.policies) == ["backlog", "latency", "utilization"]
        assert args.delay_cap == 0.8

    def test_scaling_flags_on_load_figures(self):
        parser = build_parser()
        args = parser.parse_args(
            ["fig20", "--scale-policy", "latency",
             "--min-workers", "2", "--max-workers", "6"])
        assert args.scale_policy == "latency"
        assert args.min_workers == 2
        assert args.max_workers == 6

    def test_unknown_scale_policy_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig19", "--scale-policy", "nope"])

    @staticmethod
    def exits_before_any_context(argv, capsys):
        built = []
        observer = obs.add_context_observer(built.append)
        try:
            code = main(argv)
        finally:
            obs.remove_context_observer(observer)
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not built, "the bounds are checked before any context"

    def test_bad_bounds_exit_with_error(self, capsys):
        self.exits_before_any_context(
            ["elastic", "--min-workers", "6", "--max-workers", "2"], capsys)

    @pytest.mark.parametrize("argv", [
        ["fig19", "--rates", "2", "--scale-policy", "backlog",
         "--min-workers", "6", "--max-workers", "2"],
        ["fig19", "--rates", "2", "--max-workers", "4"],
        ["fig20", "--hours", "2", "--scale-policy", "latency",
         "--min-workers", "0"],
        ["fig20", "--hours", "2", "--min-workers", "6", "--max-workers", "2"],
    ], ids=["fig19-min-above-max", "fig19-initial-above-max",
            "fig20-min-zero", "fig20-min-above-max"])
    def test_bad_figure_bounds_exit_with_error(self, argv, capsys):
        self.exits_before_any_context(argv, capsys)


class TestObservabilityCli:
    def test_critical_path_smoke(self, capsys, tmp_path):
        out = tmp_path / "annotated.json"
        assert main(["critical-path", "smoke", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "makespan" in printed
        assert "annotated trace" in printed
        import json
        trace = json.loads(out.read_text())
        from repro.obs.critical_path import CRITICAL_PATH_TID
        critical = [e for e in trace["traceEvents"]
                    if e.get("tid") == CRITICAL_PATH_TID]
        assert critical, "critical-path track was merged into the trace"
        # One metadata record total, even with several jobs annotated.
        assert sum(1 for e in critical if e["ph"] == "M") == 1

    def test_critical_path_job_filter(self, capsys):
        assert main(["critical-path", "smoke", "--job", "1"]) == 0
        assert "job 1" in capsys.readouterr().out
        assert main(["critical-path", "smoke", "--job", "99"]) == 2
        assert "no job 99" in capsys.readouterr().err

    def test_profile_service_workload(self, capsys):
        assert main(["profile", "service"]) == 0
        printed = capsys.readouterr().out
        assert "SimKernel self-profile" in printed
        assert "Dispatch hotspots" in printed

    def test_profile_smoke_workload_has_no_kernel_events(self, capsys):
        # Plain RDD jobs never touch the event heap; the command should
        # say so rather than print an empty hotspot table.
        assert main(["profile", "smoke"]) == 0
        assert "no kernel events dispatched" in capsys.readouterr().out

    def test_trace_service_reconciles(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "service", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "tenant jobs submitted" in printed
        assert "datasets registered" in printed
        assert "problem" not in printed
        assert out.exists()
