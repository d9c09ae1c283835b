"""Byte-identity of the event log and trace writers.

Both writers encode through a module-level C ``JSONEncoder`` and the
trace is streamed record by record.  The references below are the
earlier writers, kept verbatim: ``json.dump`` per JSONL line, ``json.dump``
of the whole ``to_trace()`` container, the ``dataclasses.fields()``-based
``Event.to_dict`` and the in-memory annotated critical-path trace.  Every
output must match them byte for byte.  Two locks keep it that way: the
pure-Python encoder is never entered, and ``export`` never holds the
whole trace.
"""

import contextlib
import dataclasses
import io
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.obs import (
    ChromeTraceExporter,
    EventCollector,
    JsonlEventLog,
    critical_paths,
    critical_span_trace_events,
)
from repro.obs.events import EVENT_SCHEMA, EVENT_TYPES, TaskEnd

from .test_events import make_sample


# ---- references: the writers this module replaced -------------------------

def reference_to_dict(event):
    out = {"type": event.type}
    for f in dataclasses.fields(event):
        out[f.name] = getattr(event, f.name)
    return out


def reference_jsonl(events):
    fh = io.StringIO()
    for event in events:
        json.dump(reference_to_dict(event), fh, separators=(",", ":"))
        fh.write("\n")
    return fh.getvalue()


def reference_trace(exporter):
    fh = io.StringIO()
    json.dump(exporter.to_trace(), fh)
    return fh.getvalue()


def reference_annotated_trace(tracer, reports):
    trace = tracer.to_trace()
    seen_meta = False
    for report in reports:
        events = critical_span_trace_events(report)
        if seen_meta:
            events = [e for e in events if e.get("ph") != "M"]
        seen_meta = True
        trace["traceEvents"].extend(events)
    fh = io.StringIO()
    json.dump(trace, fh)
    return fh.getvalue()


# ---- the writers under test ------------------------------------------------

def logged(events):
    buf = io.StringIO()
    log = JsonlEventLog(buf)
    for event in events:
        log.on_event(event)
    log.close()
    return buf.getvalue()


def exported(exporter, tmp_path):
    return exporter.export(tmp_path / "trace.json").read_text(
        encoding="utf-8")


def assert_same_dict(event):
    new, old = event.to_dict(), reference_to_dict(event)
    assert list(new) == list(old)
    assert new == old


# ---- sampled events --------------------------------------------------------

@pytest.mark.parametrize("name", sorted(EVENT_TYPES))
def test_sample_event_matches_reference(name, tmp_path):
    event = make_sample(name)
    assert_same_dict(event)
    assert logged([event]) == reference_jsonl([event])
    exporter = ChromeTraceExporter()
    exporter.on_event(event)
    assert exported(exporter, tmp_path) == reference_trace(exporter)


def test_empty_exporter_matches_reference(tmp_path):
    exporter = ChromeTraceExporter()
    assert exported(exporter, tmp_path) == reference_trace(exporter)


# ---- hypothesis-drawn field values -----------------------------------------

_INTS = st.integers() | st.sampled_from(
    [2**53 + 1, -(2**53) - 1, 2**64, 10**30])
_FLOATS = st.floats() | st.sampled_from(
    [math.inf, -math.inf, math.nan, -0.0, 5e-324, 2.2250738585072e-308])
_VALUES = {
    (int,): _INTS,
    (int, float): _FLOATS | _INTS,
    (str,): st.text(),
    (bool,): st.booleans(),
}


@st.composite
def drawn_events(draw):
    name = draw(st.sampled_from(sorted(EVENT_TYPES)))
    return EVENT_TYPES[name](**{
        field: draw(_VALUES[accepted])
        for field, accepted in EVENT_SCHEMA[name].items()})


@settings(max_examples=150, deadline=None)
@given(st.lists(drawn_events(), max_size=12))
def test_drawn_events_match_reference(events):
    for event in events:
        assert_same_dict(event)
    assert logged(events) == reference_jsonl(events)


@settings(max_examples=100, deadline=None)
@given(st.lists(drawn_events(), max_size=12))
def test_drawn_events_trace_matches_reference(tmp_path_factory, events):
    exporter = ChromeTraceExporter()
    for event in events:
        exporter.on_event(event)
    tmp_path = tmp_path_factory.mktemp("trace")
    assert exported(exporter, tmp_path) == reference_trace(exporter)


# ---- canned workloads ------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(cli.WORKLOADS))
def test_canned_workload_outputs_match_reference(workload, tmp_path):
    collector, tracer = EventCollector(), ChromeTraceExporter()
    buf = io.StringIO()
    log = JsonlEventLog(buf)
    contexts = cli._run_traced_workload(workload, [collector, tracer, log])
    assert collector.events
    assert buf.getvalue() == reference_jsonl(collector.events)
    assert exported(tracer, tmp_path) == reference_trace(tracer)

    reports = critical_paths(
        collector.events, locality_wait=contexts[0].config.locality_wait)
    out = tmp_path / "annotated.json"
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["critical-path", workload, "--out", str(out)])
    assert out.read_text(encoding="utf-8") == reference_annotated_trace(
        tracer, reports)


# ---- locks -----------------------------------------------------------------

def test_pure_python_encoder_is_never_entered(monkeypatch, tmp_path):
    """``json.dump`` always builds its chunks with ``_make_iterencode``;
    the C encoder never does."""
    calls = []
    make_iterencode = json.encoder._make_iterencode

    def counting(*args, **kwargs):
        calls.append(args)
        return make_iterencode(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["trace", "service",
                         "--out", str(tmp_path / "trace.json")]) == 0
        cli.main(["critical-path", "service",
                  "--out", str(tmp_path / "annotated.json")])
    assert (tmp_path / "trace.events.jsonl").stat().st_size > 0
    assert (tmp_path / "annotated.json").stat().st_size > 0
    assert len(calls) == 0


def _traced_peak(build):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        peak = tracemalloc.get_traced_memory()[1] - before
        del kept
    finally:
        tracemalloc.stop()
    return peak


def test_export_streams_instead_of_materializing(tmp_path):
    exporter = ChromeTraceExporter()
    for i in range(5000):
        start = i // 8 * 0.01
        exporter.on_event(TaskEnd(
            time=start + 0.01, job_id=0, stage_id=i // 1000, task_id=i,
            partition=i, worker_id=i % 8, locality="PROCESS_LOCAL",
            duration=0.01, launch_overhead=0.001, cache_read_time=0.002,
            compute_time=0.004, shuffle_fetch_local_time=0.001,
            shuffle_fetch_remote_time=0.001, shuffle_write_time=0.0005,
            checkpoint_read_time=0.0, source_read_time=0.0,
            gc_time=0.0005))
    materialized = _traced_peak(exporter.to_trace)
    streamed = _traced_peak(lambda: exporter.export(tmp_path / "t.json"))
    assert streamed < materialized / 2
