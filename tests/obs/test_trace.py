"""Chrome/Perfetto trace exporter: format validity and slot tracks."""

import dataclasses
import json

import pytest

from repro.obs import ChromeTraceExporter, EventCollector, assign_slots
from repro.obs.events import EVENT_TYPES, TaskEnd
from repro.obs.trace import DRIVER_PID, SERVICE_TID, SQL_TID, TASK_PHASES

from .conftest import run_small_workload
from .test_events import make_sample


class TestAssignSlots:
    def test_sequential_spans_share_one_slot(self):
        assert assign_slots([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]) \
            == [0, 0, 0]

    def test_overlapping_spans_open_new_slots(self):
        assert assign_slots([(0.0, 2.0), (1.0, 3.0), (2.5, 4.0)]) \
            == [0, 1, 0]

    def test_empty(self):
        assert assign_slots([]) == []


class TestTraceExport(object):
    def _trace(self, sc, tmp_path):
        tracer = ChromeTraceExporter()
        collector = EventCollector()
        sc.event_bus.subscribe(tracer)
        sc.event_bus.subscribe(collector)
        run_small_workload(sc)
        path = tracer.export(tmp_path / "trace.json")
        with open(path) as fh:
            trace = json.load(fh)
        return trace, collector

    def test_container_shape(self, sc, tmp_path):
        trace, _ = self._trace(sc, tmp_path)
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        for entry in trace["traceEvents"]:
            assert entry["ph"] in ("X", "i", "M", "C")
            if entry["ph"] == "X":
                assert entry["dur"] >= 0
                assert entry["ts"] >= 0

    def test_one_span_per_executed_task(self, sc, tmp_path):
        trace, collector = self._trace(sc, tmp_path)
        task_spans = [e for e in trace["traceEvents"]
                      if e.get("cat") == "task"]
        ends = collector.of_type(TaskEnd)
        assert len(ends) > 0
        assert len(task_spans) == len(ends)
        assert {e["args"]["task_id"] for e in task_spans} \
            == {t.task_id for t in ends}

    def test_one_named_track_per_worker_slot(self, sc, tmp_path):
        trace, _ = self._trace(sc, tmp_path)
        slot_names = {}
        for e in trace["traceEvents"]:
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] > 0:
                slot_names[(e["pid"], e["tid"])] = e["args"]["name"]
        used_tracks = {(e["pid"], e["tid"]) for e in trace["traceEvents"]
                       if e.get("cat") == "task"}
        assert used_tracks  # every task track is a named slot
        assert used_tracks <= set(slot_names)
        # reconstructed slots never exceed the simulated core count
        per_worker = {}
        for pid, tid in used_tracks:
            per_worker.setdefault(pid, set()).add(tid)
        for pid, tids in per_worker.items():
            assert len(tids) <= sc.cluster.get_worker(pid - 1).cores

    def test_phase_subspans_nest_inside_task(self, sc, tmp_path):
        trace, _ = self._trace(sc, tmp_path)
        phases = [e for e in trace["traceEvents"] if e.get("cat") == "phase"]
        assert phases
        tasks = {e["args"]["task_id"]: e for e in trace["traceEvents"]
                 if e.get("cat") == "task"}
        for phase in phases:
            task = tasks[phase["args"]["task_id"]]
            assert phase["ts"] >= task["ts"] - 1e-6
            assert phase["ts"] + phase["dur"] \
                <= task["ts"] + task["dur"] + 1e-6
            assert "cname" in phase

    def test_driver_spans_for_jobs_and_stages(self, sc, tmp_path):
        trace, _ = self._trace(sc, tmp_path)
        cats = {e.get("cat") for e in trace["traceEvents"]}
        assert "job" in cats
        assert "stage" in cats
        driver = [e for e in trace["traceEvents"]
                  if e.get("cat") in ("job", "stage")]
        assert all(e["pid"] == 0 for e in driver)


# What one event of each type draws: (ph, pid, tid, cat, scope, sorted arg
# keys) per non-metadata record, in trace order.  Samples come from
# ``make_sample`` (every int field is 3, so worker 3 is pid 4).
_WORKER, _DRIVER = 4, 0


def _marker(pid, tid, cat, scope, *args):
    return ("i", pid, tid, cat, scope, sorted(args))


def _counter(key):
    return ("C", _DRIVER, None, None, None, [key])


def _span(tid, cat, *args):
    return ("X", _DRIVER, tid, cat, None, sorted(args))


EXPECTED_RECORDS = {
    "TaskEnd": [
        ("X", _WORKER, 0, "task", None, sorted(
            ["job_id", "stage_id", "task_id", "partition", "locality",
             "gc_time", "compute_time", "attempt", "status"]))
    ] + [("X", _WORKER, 0, "phase", None, ["task_id"])] * len(TASK_PHASES),
    # Openers draw nothing themselves; their closer's span starts at them
    # (test_openers_feed_their_closers).
    "JobStart": [],
    "StageSubmitted": [],
    "QueryPlanned": [],
    "JobEnd": [_span(1, "job", "job_id", "num_stages", "skipped_stages")],
    "StageCompleted": [_span(2, "stage", "job_id", "stage_id", "skipped")],
    "QueryCompleted": [_span(SQL_TID, "sql", "query_id", "rows", "plan",
                             "pushed_filters", "pruned_columns",
                             "elided_exchanges")],
    "QueryFailed": [_span(SQL_TID, "sql", "query_id", "error")],
    "BlockCached": [_counter("resident bytes")],
    "BlockEvicted": [_marker(_WORKER, 0, "eviction", "t", "reason")],
    "CacheMiss": [_marker(_WORKER, 0, "cache", "t")],
    "BrokerEvicted": [
        _marker(_WORKER, 0, "broker", "t", "requested_by", "value"),
        _counter("broker actions")],
    "BrokerMigrated": [
        _marker(_WORKER, 0, "broker", "t", "src_worker", "size_bytes",
                "value"),
        _counter("broker actions")],
    "BrokerPrefixHit": [
        _marker(_WORKER, 0, "broker", "t", "remote"),
        _counter("broker actions")],
    "FailureInjected": [_marker(_WORKER, 0, "failure", "g", "lost_blocks",
                                "lost_shuffle_outputs")],
    "LineageRecovered": [_marker(_WORKER, 0, "failure", "g",
                                 "recovery_delay")],
    "TaskRetried": [_marker(_WORKER, 0, "retry", "t", "backoff", "reason")],
    "ExecutorBlacklisted": [_marker(_WORKER, 0, "blacklist", "g",
                                    "stage_id", "failures", "until")],
    "FetchFailed": [_marker(_WORKER, 0, "failure", "g", "task_id",
                            "reason")],
    "StageResubmitted": [_marker(_DRIVER, 2, "failure", "p", "job_id",
                                 "shuffle_id", "reason")],
    "CheckpointWritten": [_marker(_DRIVER, 1, "checkpoint", "p",
                                  "total_bytes")],
    "TenantJobShed": [_marker(_DRIVER, SERVICE_TID, "service", "t",
                              "tenant", "pending")],
    "DatasetRegistered": [_marker(_DRIVER, SERVICE_TID, "dataset", "t",
                                  "tenant", "rdd_id", "deduped")],
    "DatasetBranched": [_marker(_DRIVER, SERVICE_TID, "dataset", "t",
                                "tenant", "source_version", "rdd_id")],
    "DatasetDropped": [_marker(_DRIVER, SERVICE_TID, "dataset", "t",
                               "tenant", "deferred", "unpersisted")],
    "PoolWeightsUpdated": [_marker(_DRIVER, SERVICE_TID, "service", "t",
                                   "min_share")],
    "TenantSloAlert": [_marker(_DRIVER, SERVICE_TID, "slo", "g",
                               "observed", "target", "burn_rate")],
}

#: Types the timeline deliberately ignores (the event log keeps them;
#: the SLO monitor consumes ``TenantJobCompleted``).  A new event type
#: must be added here or to EXPECTED_RECORDS — it cannot fall through unnoticed.
TIMELINE_NEUTRAL = {
    "TaskStart", "CacheHit", "ShuffleFetch", "TenantJobSubmitted",
    "TenantJobAdmitted", "TenantJobCompleted",
}


def _records(trace):
    return [(e["ph"], e["pid"], e.get("tid"), e.get("cat"), e.get("s"),
             sorted(e["args"]))
            for e in trace["traceEvents"] if e["ph"] != "M"]


def _named_driver_tids(trace):
    return {e["tid"] for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
            and e["pid"] == DRIVER_PID}


class TestEveryEventType:
    def test_every_type_is_rendered_or_declared_neutral(self):
        assert set(EXPECTED_RECORDS).isdisjoint(TIMELINE_NEUTRAL)
        assert set(EXPECTED_RECORDS) | TIMELINE_NEUTRAL == set(EVENT_TYPES)

    @pytest.mark.parametrize("name", sorted(EVENT_TYPES))
    def test_one_event_draws_exactly_its_records(self, name):
        tracer = ChromeTraceExporter()
        tracer.on_event(make_sample(name))
        trace = tracer.to_trace()
        json.dumps(trace)  # serialisable as exported
        expected = ([] if name in TIMELINE_NEUTRAL
                    else EXPECTED_RECORDS[name])
        assert _records(trace) == expected
        # A driver thread track is named iff it is jobs/stages or
        # something was drawn on it.
        drawn = {tid for _, pid, tid, _, _, _ in expected
                 if pid == DRIVER_PID and tid is not None}
        assert _named_driver_tids(trace) == {1, 2} | drawn

    def test_openers_feed_their_closers(self):
        tracer = ChromeTraceExporter()
        for opener, closer in (("JobStart", "JobEnd"),
                               ("StageSubmitted", "StageCompleted"),
                               ("QueryPlanned", "QueryFailed")):
            begin = dataclasses.replace(make_sample(opener), time=0.5)
            tracer.on_event(begin)
            tracer.on_event(make_sample(closer))  # same ids, time 1.25
        job, stage, query = [e for e in tracer.to_trace()["traceEvents"]
                             if e["ph"] == "X"]
        for span in (job, stage, query):
            assert span["ts"] == 0.5e6
            assert span["dur"] == 0.75e6
        assert job["name"] == "job 3: x"  # the JobStart's description
        # A completed query spans its own duration and carries the plan.
        tracer = ChromeTraceExporter()
        tracer.on_event(make_sample("QueryPlanned"))
        tracer.on_event(make_sample("QueryCompleted"))  # duration 1.5
        [query] = [e for e in tracer.to_trace()["traceEvents"]
                   if e["ph"] == "X"]
        assert query["ts"] == (1.25 - 1.5) * 1e6 and query["dur"] == 1.5e6
        assert query["args"]["plan"] == "x"
        assert query["args"]["pushed_filters"] == 3
