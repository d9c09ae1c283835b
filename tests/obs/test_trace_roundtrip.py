"""Perfetto trace export round-trip: export a full-stack service run,
re-parse the JSON, and check track/span structure."""

import json

import pytest

from repro.cli import WORKLOADS, _run_traced_workload
from repro.obs import ChromeTraceExporter, JsonlEventLog
from repro.obs.listeners import read_event_log, validate_event_log
from repro.obs.trace import DRIVER_PID, SERVICE_TID

_US = 1e6


def _export_service_run(tmp_path):
    tracer = ChromeTraceExporter()
    jsonl = tmp_path / "events.jsonl"
    with JsonlEventLog(jsonl) as log:
        _run_traced_workload("service", [tracer, log])
    trace_path = tracer.export(tmp_path / "trace.json")
    return json.loads(trace_path.read_text()), jsonl


def test_service_run_round_trips(tmp_path):
    trace, jsonl = _export_service_run(tmp_path)

    # The raw event log the trace was rendered from is schema-valid.
    assert validate_event_log(jsonl) == []

    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    assert events, "trace is non-empty"
    phases = {e["ph"] for e in events}
    assert "M" in phases and "X" in phases

    spans = [e for e in events if e["ph"] == "X"]
    for span in spans:
        assert span["dur"] >= 0
        assert span["ts"] >= 0
        assert {"name", "pid", "tid", "cat"} <= set(span)

    # Driver track: job spans on tid 1, stage spans on tid 2; worker
    # processes hold the task spans.
    jobs = [s for s in spans
            if s["pid"] == DRIVER_PID and s["cat"] == "job"]
    stages = [s for s in spans
              if s["pid"] == DRIVER_PID and s["cat"] == "stage"]
    tasks = [s for s in spans if s["pid"] != DRIVER_PID
             and s["cat"] == "task"]
    assert jobs and stages and tasks
    assert all(s["tid"] == 1 for s in jobs)
    assert all(s["tid"] == 2 for s in stages)

    # Every stage span nests inside its job's window, every task span
    # inside its stage's window (matched via args).
    tol = 1e-3  # microsecond timestamps: 1e-3 us = 1e-9 s
    job_windows = {}
    for span in jobs:
        job_windows[span["args"]["job_id"]] = (
            span["ts"], span["ts"] + span["dur"])
    stage_windows = {}
    for span in stages:
        begin, end = span["ts"], span["ts"] + span["dur"]
        stage_windows[(span["args"]["job_id"],
                       span["args"]["stage_id"])] = (begin, end)
        jb, je = job_windows[span["args"]["job_id"]]
        assert jb - tol <= begin and end <= je + tol
    assert stage_windows
    for span in tasks:
        key = (span["args"]["job_id"], span["args"]["stage_id"])
        sb, se = stage_windows[key]
        assert sb - tol <= span["ts"]
        assert span["ts"] + span["dur"] <= se + tol

    # Process metadata names the driver and at least one worker.
    names = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert any("driver" in n for n in names)
    assert any("worker" in n for n in names)


def test_service_run_renders_service_track(tmp_path):
    """Sheds, dataset lifecycle, and pool reweights land as instant
    markers on the driver's dedicated service track."""
    trace, _ = _export_service_run(tmp_path)
    events = trace["traceEvents"]
    markers = [e for e in events if e["ph"] == "i"
               and e["pid"] == DRIVER_PID and e["tid"] == SERVICE_TID]
    names = [m["name"] for m in markers]
    assert any(n.startswith("shed gamma") for n in names)
    assert any(n.startswith("register ds-") for n in names)
    assert any("(dedup)" in n for n in names)
    assert any(n.startswith("branch ds-beta") for n in names)
    assert any(n.startswith("drop ds-scratch") for n in names)
    assert any(n.startswith("pool ") for n in names)
    # ... and the track is named in process metadata.
    assert any(e["ph"] == "M" and e["name"] == "thread_name"
               and e.get("tid") == SERVICE_TID
               and e["args"]["name"] == "service" for e in events)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_event_log_alone_regenerates_the_trace(workload, tmp_path):
    """An exporter replaying ``events.jsonl`` renders the same trace as
    the one that listened live: the log is a complete record."""
    live = ChromeTraceExporter()
    jsonl = tmp_path / "events.jsonl"
    with JsonlEventLog(jsonl) as log:
        _run_traced_workload(workload, [live, log])
    replayed = ChromeTraceExporter()
    for event in read_event_log(jsonl):
        replayed.on_event(event)
    assert replayed.to_trace() == live.to_trace()
