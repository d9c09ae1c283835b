"""Critical-path blame attribution: the invariant is that blame tiles
the makespan — on synthetic trees, real streams, randomized workloads
(hypothesis), and the full-stack determinism scenario (task failures
and a worker kill)."""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    CATEGORIES,
    EventCollector,
    ascii_blame_chart,
    critical_paths,
    critical_span_trace_events,
)
from repro.obs.events import BlockCached, BlockEvicted, CacheMiss
from repro.obs.listeners import read_event_log

from ..cluster.test_determinism import full_stack_run
from .conftest import make_context, run_small_workload
from .test_spans import (
    job_end,
    job_start,
    stage_completed,
    stage_submitted,
    task_end,
)


def assert_sound(report):
    assert report.problems() == []
    blame = report.blame()
    assert set(blame) == set(CATEGORIES)
    assert abs(sum(blame.values()) - report.makespan) < 1e-6
    assert all(v >= -1e-9 for v in blame.values())


class TestSynthetic:
    def test_single_task_job(self):
        events = [
            job_start(0.0),
            stage_submitted(0.0),
            task_end(1.0, duration=0.4),
            stage_completed(1.0, duration=1.0),
            job_end(1.0),
        ]
        report = critical_paths(events)[0]
        assert_sound(report)
        blame = report.blame()
        # 0.6s before the launch is scheduling wait, 0.4s is the task.
        assert abs(blame["sched_wait"] - 0.6) < 1e-9
        assert abs(blame["compute"] - 0.4) < 1e-9

    def test_empty_job_blames_sched_wait(self):
        events = [job_start(0.0), job_end(2.0)]
        report = critical_paths(events)[0]
        assert_sound(report)
        assert abs(report.blame()["sched_wait"] - 2.0) < 1e-9

    def test_failed_attempt_blames_retry(self):
        events = [
            job_start(0.0),
            stage_submitted(0.0),
            task_end(0.5, task_id=0, duration=0.5, status="failed"),
            task_end(1.0, task_id=1, duration=0.4),
            stage_completed(1.0, duration=1.0),
            job_end(1.0),
        ]
        report = critical_paths(events)[0]
        assert_sound(report)
        blame = report.blame()
        assert blame["retry"] > 0.4  # the failed attempt's window
        assert abs(blame["compute"] - 0.4) < 1e-9

    def test_locality_wait_charged_before_nonlocal_launch(self):
        events = [
            job_start(0.0),
            stage_submitted(0.0),
            task_end(0.5, duration=0.2),  # locality="ANY" (non-local)
            stage_completed(0.5, duration=0.5),
            job_end(0.5),
        ]
        report = critical_paths(events, locality_wait=0.1)[0]
        assert_sound(report)
        blame = report.blame()
        assert abs(blame["locality_wait"] - 0.1) < 1e-9
        assert abs(blame["sched_wait"] - 0.2) < 1e-9

    def test_broker_is_blamed_only_for_a_blocks_latest_eviction(self):
        """A block the broker evicted once, that was re-cached and then
        evicted for capacity, is not the memory market's recompute."""
        block = dict(worker_id=0, rdd_id=7, partition=0)
        capacity_evict = BlockEvicted(time=3.0, reason="capacity", **block)
        events = [
            job_start(0.0),
            BlockEvicted(time=1.0, reason="broker", **block),
            BlockCached(time=2.0, size_bytes=8.0, **block),
            capacity_evict,
            stage_submitted(3.5),
            CacheMiss(time=4.0, **block),
            task_end(4.5, duration=1.0),  # window [3.5, 4.5] on worker 0
            stage_completed(4.5, duration=1.0),
            job_end(4.5),
        ]
        report = critical_paths(events)[0]
        assert_sound(report)
        blame = report.blame()
        assert abs(blame["recompute"] - 1.0) < 1e-9
        assert blame["broker_recompute"] == 0

        events.remove(capacity_evict)
        report = critical_paths(events)[0]
        assert_sound(report)
        blame = report.blame()
        assert abs(blame["broker_recompute"] - 1.0) < 1e-9
        assert blame["recompute"] == 0

    def test_chart_and_trace_annotation(self):
        events = [
            job_start(0.0), stage_submitted(0.0),
            task_end(1.0, duration=0.4), stage_completed(1.0), job_end(1.0),
        ]
        report = critical_paths(events)[0]
        chart = ascii_blame_chart(report)
        assert "compute" in chart and "sched_wait" in chart
        trace = critical_span_trace_events(report)
        assert trace[0]["ph"] == "M"
        assert trace[0]["args"] == {"name": "critical path"}
        for span in trace[1:]:
            assert span["ph"] == "X"
            assert span["dur"] >= 0
            assert span["tid"] == trace[0]["tid"]
            assert span["args"]["category"] in CATEGORIES


class _CountingList(list):
    """Counts how often it is iterated (a clock-free cost probe)."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_critical_paths_scans_the_stream_a_constant_number_of_times():
    """The aux index (misses, evictions, backoffs) is built once for all
    jobs, not once per job: the raw event list is iterated twice (span
    reconstruction + index) however many jobs it holds."""
    events = _CountingList()
    for job in range(40):
        t = float(job)
        events += [
            job_start(t, job_id=job), stage_submitted(t, job_id=job),
            task_end(t + 0.5, job_id=job, duration=0.4),
            stage_completed(t + 0.5, job_id=job, duration=0.5),
            job_end(t + 0.5, job_id=job),
        ]
    reports = critical_paths(events)
    assert len(reports) == 40
    for report in reports:
        assert_sound(report)
    assert events.iterations <= 2


class TestRealStreams:
    def test_small_workload(self):
        context = make_context()
        collector = EventCollector()
        context.event_bus.subscribe(collector)
        run_small_workload(context)
        reports = critical_paths(
            collector.events,
            locality_wait=context.config.locality_wait)
        assert len(reports) == 3
        for report in reports:
            assert_sound(report)
            assert report.makespan > 0
            # something other than pure wait sits on the critical path
            blame = report.blame()
            assert sum(blame[c] for c in
                       ("compute", "recompute", "read", "fetch",
                        "shuffle_write", "launch", "gc")) > 0

    def test_full_stack_scenario(self, tmp_path):
        """Task failures + a worker kill: retries appear and the
        invariant still holds for every job."""
        log = full_stack_run(seed=7)
        path = tmp_path / "events.jsonl"
        path.write_text(log)
        events = read_event_log(path)
        reports = critical_paths(events, locality_wait=0.1)
        assert len(reports) == 12
        assert sum(report.blame()["retry"] for report in reports) > 0
        for report in reports:
            assert_sound(report)

    @settings(max_examples=12, deadline=None)
    @given(
        num_workers=st.integers(min_value=1, max_value=4),
        cores=st.integers(min_value=1, max_value=3),
        num_partitions=st.integers(min_value=1, max_value=8),
        num_keys=st.integers(min_value=1, max_value=20),
        records=st.integers(min_value=1, max_value=300),
        cached=st.booleans(),
        shuffle=st.booleans(),
        repeats=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_blame_sums_to_makespan_on_randomized_workloads(
            self, num_workers, cores, num_partitions, num_keys, records,
            cached, shuffle, repeats, seed):
        context = make_context(num_workers=num_workers,
                               cores_per_worker=cores,
                               memory_per_worker=1e8, seed=seed)
        collector = EventCollector()
        context.event_bus.subscribe(collector)
        data = [(i % num_keys, i) for i in range(records)]
        rdd = context.parallelize(data, num_partitions=num_partitions)
        if cached:
            rdd = rdd.cache()
        if shuffle:
            query = rdd.reduce_by_key(lambda a, b: a + b)
        else:
            query = rdd.map(lambda kv: kv[1])
        for _ in range(repeats):
            query.count()
        reports = critical_paths(collector.events,
                                 locality_wait=context.config.locality_wait)
        for report in reports:
            assert_sound(report)
