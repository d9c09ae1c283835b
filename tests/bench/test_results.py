"""Tests for machine-readable benchmark result files."""

import json

import pytest

from repro.bench.results import (
    BENCH_DIR_ENV,
    bench_json_path,
    write_bench_json,
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(BENCH_DIR_ENV, raising=False)


class TestBenchJsonPath:
    def test_none_without_env_or_directory(self):
        assert bench_json_path("x") is None

    def test_env_variable_names_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv(BENCH_DIR_ENV, str(tmp_path))
        assert bench_json_path("fig19") == tmp_path / "BENCH_fig19.json"

    def test_explicit_directory_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(BENCH_DIR_ENV, "/elsewhere")
        assert bench_json_path("x", tmp_path) == tmp_path / "BENCH_x.json"

    def test_empty_env_treated_as_unset(self, monkeypatch):
        monkeypatch.setenv(BENCH_DIR_ENV, "")
        assert bench_json_path("x") is None


class TestWriteBenchJson:
    def test_skips_when_no_target(self):
        assert write_bench_json("x", {"a": 1}) is None

    def test_round_trips_payload(self, tmp_path):
        payload = {"config": {"hours": 12}, "p95": 0.435}
        path = write_bench_json("fig19", payload, tmp_path)
        assert path == tmp_path / "BENCH_fig19.json"
        assert json.loads(path.read_text()) == payload

    def test_creates_missing_directory(self, tmp_path):
        target = tmp_path / "deep" / "dir"
        path = write_bench_json("x", {}, target)
        assert path.exists()

    def test_env_driven_write(self, monkeypatch, tmp_path):
        monkeypatch.setenv(BENCH_DIR_ENV, str(tmp_path))
        path = write_bench_json("y", {"k": [1, 2]})
        assert path == tmp_path / "BENCH_y.json"
        assert json.loads(path.read_text()) == {"k": [1, 2]}

    def test_output_is_stable_between_runs(self, tmp_path):
        first = write_bench_json("z", {"b": 1, "a": 2}, tmp_path).read_text()
        second = write_bench_json("z", {"a": 2, "b": 1}, tmp_path).read_text()
        assert first == second
