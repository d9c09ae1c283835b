"""Tests for the command-line interface."""

import pytest

from repro import obs
from repro.cache import DEFAULTS, set_default_policy
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
            assert main(["--cache-policy", "lrc", "list"]) == 0
            assert DEFAULTS.policy == "lrc"
        finally:
            set_default_policy("lru")

    def test_unknown_cache_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["--cache-policy", "belady", "list"])

    def test_bad_knob_exits_with_error_before_any_context(self, capsys):
        built = []
        observer = obs.add_context_observer(built.append)
        try:
            code = main(["service", "--tenant-quota-mb", "-1"])
        finally:
            obs.remove_context_observer(observer)
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not built, "the knob is checked before any context"


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

    def test_trace_service_reconciles(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "service", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "tenant jobs submitted" in printed
        assert "datasets registered" in printed
        assert "problem" not in printed
        assert out.exists()
