"""The CI perf-regression gate: ``python -m repro.bench.compare``."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.bench.compare import (
    Delta,
    compare_dirs,
    flatten_metrics,
    main,
    markdown_table,
    metric_direction,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def _no_step_summary(monkeypatch):
    """Keep test runs from appending to a real CI job summary."""
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)


def write_bench(directory: Path, name: str, payload: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload))
    return path


class TestFlatten:
    def test_nested_paths_and_config_skipped(self):
        payload = {"config": {"num_workers": 8},
                   "arms": {"on": {"p99_task_delay": 0.04, "ok": True}},
                   "hit_rate": 0.9}
        flat = dict(flatten_metrics(payload))
        assert flat == {"arms.on.p99_task_delay": 0.04, "hit_rate": 0.9}

    def test_direction_by_leaf_name(self):
        assert metric_direction("arms.on.p99_task_delay") == -1
        assert metric_direction("arms.broker.mean_makespan") == -1
        assert metric_direction("hit_rate") == +1
        assert metric_direction("p99_improvement") == +1
        assert metric_direction("evictions") == 0


class TestDelta:
    def test_lower_is_better_regression(self):
        d = Delta("b", "p99_task_delay", 0.040, 0.048, threshold=0.15)
        assert d.regressed
        d = Delta("b", "p99_task_delay", 0.040, 0.045, threshold=0.15)
        assert not d.regressed  # +12.5% is inside a 15% threshold

    def test_higher_is_better_regression(self):
        assert Delta("b", "hit_rate", 0.90, 0.70, threshold=0.15).regressed
        assert not Delta("b", "hit_rate", 0.90, 0.85,
                         threshold=0.15).regressed

    def test_improvement_never_regresses(self):
        assert not Delta("b", "p99_task_delay", 0.040, 0.001,
                         threshold=0.15).regressed
        assert not Delta("b", "hit_rate", 0.5, 0.99,
                         threshold=0.15).regressed

    def test_untracked_metric_never_fails(self):
        assert not Delta("b", "evictions", 10, 1000,
                         threshold=0.15).regressed

    def test_missing_tracked_value_fails_loud(self):
        assert Delta("b", "p99_task_delay", 0.04, None,
                     threshold=0.15).regressed
        assert Delta("b", "p99_task_delay", None, 0.04,
                     threshold=0.15).regressed


class TestCompareDirs:
    def test_committed_fixture_pair_regresses(self):
        deltas, problems = compare_dirs(
            FIXTURES / "baseline", FIXTURES / "regressed", threshold=0.15)
        assert problems == []
        regressed = [d for d in deltas if d.regressed]
        assert [d.path for d in regressed] == ["arms.fast.p99_task_delay"]

    def test_identity_is_clean(self):
        deltas, problems = compare_dirs(
            FIXTURES / "baseline", FIXTURES / "baseline", threshold=0.15)
        assert problems == []
        assert not any(d.regressed for d in deltas)

    def test_missing_current_file_is_a_problem(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        _, problems = compare_dirs(FIXTURES / "baseline", empty,
                                   threshold=0.15)
        assert any("produced no" in p for p in problems)

    def test_unbaselined_benchmark_is_a_problem(self, tmp_path):
        write_bench(tmp_path / "cur", "novel", {"makespan": 1.0})
        _, problems = compare_dirs(FIXTURES / "baseline", tmp_path / "cur",
                                   threshold=0.15)
        assert any("no committed baseline" in p for p in problems)


class TestOnlyFilter:
    """``--only``: gate a named subset (the sim-kernel smoke job)."""

    def seed(self, tmp_path):
        base, cur = tmp_path / "base", tmp_path / "cur"
        write_bench(base, "a", {"makespan": 1.0})
        write_bench(base, "b", {"makespan": 2.0})
        write_bench(cur, "a", {"makespan": 1.0})
        return base, cur

    def test_absent_unnamed_baseline_is_not_a_problem(self, tmp_path):
        base, cur = self.seed(tmp_path)
        deltas, problems = compare_dirs(base, cur, threshold=0.15,
                                        only=["a"])
        assert problems == []
        assert {d.bench for d in deltas} == {"a"}

    def test_without_only_the_missing_result_fails(self, tmp_path):
        base, cur = self.seed(tmp_path)
        _, problems = compare_dirs(base, cur, threshold=0.15)
        assert any("'b'" in p for p in problems)

    def test_only_still_gates_the_named_benchmark(self, tmp_path):
        base, cur = self.seed(tmp_path)
        write_bench(cur, "a", {"makespan": 2.0})  # +100%
        deltas, problems = compare_dirs(base, cur, threshold=0.15,
                                        only=["a"])
        assert problems == []
        assert any(d.regressed for d in deltas)

    def test_only_with_unknown_name_is_a_problem(self, tmp_path):
        base, cur = self.seed(tmp_path)
        _, problems = compare_dirs(base, cur, threshold=0.15,
                                   only=["a", "nope"])
        assert any("nope" in p for p in problems)

    def test_cli_flag_parses_comma_list(self, tmp_path):
        base, cur = self.seed(tmp_path)
        assert main([str(base), str(cur), "--only", "a"]) == 0
        assert main([str(base), str(cur)]) == 1

    def test_update_baselines_respects_only(self, tmp_path):
        base, cur = tmp_path / "base", tmp_path / "cur"
        write_bench(cur, "a", {"makespan": 1.0})
        write_bench(cur, "b", {"makespan": 2.0})
        assert main([str(base), str(cur), "--update-baselines",
                     "--only", "b"]) == 0
        assert not (base / "BENCH_a.json").exists()
        assert (base / "BENCH_b.json").exists()


class TestMain:
    def test_exit_codes_on_fixture_pair(self, capsys):
        assert main([str(FIXTURES / "baseline"),
                     str(FIXTURES / "regressed")]) == 1
        assert main([str(FIXTURES / "baseline"),
                     str(FIXTURES / "baseline")]) == 0
        out = capsys.readouterr().out
        assert "Benchmark regression gate" in out

    def test_threshold_flag_widens_gate(self):
        # the fixture regression is +20%; a 25% threshold passes it
        assert main([str(FIXTURES / "baseline"), str(FIXTURES / "regressed"),
                     "--threshold", "0.25"]) == 0

    def test_table_out_written(self, tmp_path):
        table = tmp_path / "table.md"
        main([str(FIXTURES / "baseline"), str(FIXTURES / "regressed"),
              "--table-out", str(table)])
        text = table.read_text()
        assert "| benchmark | metric |" in text
        assert "❌ regressed" in text
        # untracked metrics stay out of the table
        assert "evictions" not in text

    def test_update_baselines_copies_current(self, tmp_path):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        write_bench(cur, "x", {"makespan": 1.0})
        assert main([str(base), str(cur), "--update-baselines"]) == 0
        assert json.loads(
            (base / "BENCH_x.json").read_text()) == {"makespan": 1.0}
        # and the refreshed baseline now gates cleanly
        assert main([str(base), str(cur)]) == 0

    def test_update_baselines_with_no_results_fails(self, tmp_path):
        cur = tmp_path / "cur"
        cur.mkdir()
        assert main([str(tmp_path / "base"), str(cur),
                     "--update-baselines"]) == 1

    def test_markdown_table_is_github_flavored(self):
        deltas, _ = compare_dirs(FIXTURES / "baseline",
                                 FIXTURES / "regressed", threshold=0.15)
        lines = markdown_table(deltas).splitlines()
        assert lines[0].startswith("| benchmark |")
        assert set(lines[1]) <= {"|", "-"}
        assert all(line.startswith("|") for line in lines)


class TestCommittedBaselines:
    """The committed baselines, the names the benchmarks write and the
    names CI's perf gate compares are one set: a deleted benchmark leaves
    no orphan baseline or gate entry, and a new baseline is gated."""

    ROOT = Path(__file__).resolve().parents[2]

    def test_gate_baselines_and_writers_agree(self):
        committed = {path.stem.removeprefix("BENCH_") for path in
                     (self.ROOT / "benchmarks" / "baselines").glob("BENCH_*.json")}
        sources = [*(self.ROOT / "src" / "repro" / "bench").glob("*.py"),
                   *(self.ROOT / "benchmarks").glob("bench_*.py")]
        written = {name for path in sources for name in re.findall(
            r'write_bench_json\(\s*"(\w+)"', path.read_text(encoding="utf-8"))}
        workflow = (self.ROOT / ".github" / "workflows" / "ci.yml").read_text(
            encoding="utf-8")
        gated = {name for names in re.findall(r"--only (\S+)", workflow)
                 for name in names.split(",")}
        assert committed == written == gated
