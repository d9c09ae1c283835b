"""The benchmark's own checks: the manifest matches what ``run.py``
prints, and the smoke run has the shape ``perf/README.md`` promises."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

PERF = Path(run.__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def manifest():
    with open(PERF.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_manifest_names_what_run_py_prints(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["command"] == ["python3", "perf/run.py"]
    assert manifest["paths"] == ["perf"]
    assert [w["name"] for w in manifest["workloads"]] == run.WORKLOAD_NAMES
    assert [m["name"] for m in manifest["end_to_end"]] == run.END_TO_END
    assert [m["name"] for m in manifest["per_layer"]] == run.per_layer_names()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])
        assert metric["better"] in ("lower", "higher")
    for metric in manifest["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_every_workload_reports_every_metric_and_is_correct(smoke):
    assert list(smoke) == run.WORKLOAD_NAMES
    for name, by_trace in smoke.items():
        end_to_end, per_layer = by_trace["0"], by_trace["1"]
        assert list(end_to_end["metrics"]) == run.END_TO_END
        assert all(v > 0 for v in end_to_end["metrics"].values()), name
        assert list(per_layer["metrics"]) == run.per_layer_names()
        for detail in (end_to_end, per_layer):
            assert detail["correct"] and detail["failed"] == 0, name
            assert detail["attempted"] >= 1


def test_layer_self_times_tile_the_traced_wall(smoke):
    for name, by_trace in smoke.items():
        metrics = by_trace["1"]["metrics"]
        tiled = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert tiled == pytest.approx(metrics["trace.wall_s"], rel=0.02), name


def test_layers_appear_only_on_the_workload_that_crosses_them(smoke):
    for name, by_trace in smoke.items():
        metrics = by_trace["1"]["metrics"]
        calls = {layer: sum(v for k, v in metrics.items()
                            if k.startswith(layer) and k.endswith(".calls"))
                 for layer in ("obs.", "sql.", "columnar.", "core.")}
        assert (calls["obs."] > 0) == (name == "explain_service"), name
        assert (metrics["obs.emit.calls"] > 0) == (name == "explain_service")
        assert (calls["sql."] > 0) == (name == "sql_tpch"), name
        assert (calls["columnar."] > 0) == (name == "sql_tpch"), name
        assert (calls["core."] > 0) == (name == "stream_taxi"), name
        assert by_trace["1"]["missing_boundaries"] == []


def test_layers_json_predictions_hold_on_the_smoke_run(smoke):
    """``layers.json`` says which workloads each layer's self time should
    move ``cpu_s`` on, and on which it should not."""
    with open(PERF / "layers.json", encoding="utf-8") as fh:
        layers = json.load(fh)
    assert list(layers) == tracing.LAYERS
    share = {name: {layer: by_trace["1"]["metrics"][f"{layer}.self_s"]
                    / by_trace["1"]["metrics"]["trace.wall_s"]
                    for layer in layers}
             for name, by_trace in smoke.items()}
    for layer, moves in layers.items():
        assert set(moves) == {"metric", "on", "not_on"}, layer
        assert moves["metric"] in run.END_TO_END, layer
        assert moves["on"] and set(moves["on"]) <= set(smoke), layer
        assert set(moves["not_on"]) <= set(smoke) - set(moves["on"]), layer
        for name in moves["on"]:
            assert smoke[name]["1"]["metrics"][f"{layer}.calls"] > 0, \
                (layer, name)
        for name in moves["not_on"]:
            assert share[name][layer] < max(
                share[on][layer] for on in moves["on"]), (layer, name)


def test_exact_counts_agree_between_timed_and_traced_passes(smoke):
    for name, by_trace in smoke.items():
        end_to_end, per_layer = by_trace["0"], by_trace["1"]
        # Within a run every pass, traced or not, must fingerprint alike.
        assert end_to_end["deterministic"] and per_layer["deterministic"]
        for count in run.PASS_COUNTS:
            assert per_layer["metrics"][count] == \
                end_to_end["counts"].get(count, 0.0), (name, count)
        assert per_layer["digest"] == end_to_end["digest"], name


def test_single_workload_run_ends_with_the_contract_line():
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", "sql_tpch",
         "--seed", "5", "--smoke", "--trace", "0"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == run.END_TO_END
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_single_workload_run_needs_a_trace_mode():
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", "sql_tpch",
         "--smoke"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and done.stdout == ""


def test_a_wrong_result_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(run.adapter.SqlTpch, "verify",
                        lambda self, result: {"q0.0": "made wrong"})
    assert run.main(["--workload", "sql_tpch", "--smoke", "--trace", "0"]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0


def test_refuses_to_run_without_the_program():
    bare = PERF / "out" / "bare"  # only BENCHMARK.json and perf/, no src/
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(PERF, bare / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(PERF.parent / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perf/run.py", "--workload", "sql_tpch",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
