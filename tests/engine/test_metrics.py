"""Tests for metrics accounting and summaries."""

import pytest

from repro.engine.metrics import JobMetrics, MetricsCollector, TaskMetrics


def task(duration=1.0, gc=0.1, start=0.0, locality="ANY"):
    tm = TaskMetrics()
    tm.start_time = start
    tm.finish_time = start + duration
    tm.gc_time = gc
    tm.locality = locality
    return tm


class TestTaskMetrics:
    def test_duration(self):
        assert task(duration=2.5).duration == 2.5

    def test_work_time_sums_components(self):
        tm = TaskMetrics()
        tm.launch_overhead = 0.1
        tm.compute_time = 0.2
        tm.shuffle_fetch_local_time = 0.3
        tm.shuffle_fetch_remote_time = 0.4
        tm.shuffle_write_time = 0.5
        tm.cache_read_time = 0.6
        tm.checkpoint_read_time = 0.7
        tm.source_read_time = 0.8
        tm.gc_time = 0.9
        assert tm.work_time() == pytest.approx(4.5)

    def test_shuffle_fetch_time_combines_local_remote(self):
        tm = TaskMetrics()
        tm.shuffle_fetch_local_time = 1.0
        tm.shuffle_fetch_remote_time = 2.0
        assert tm.shuffle_fetch_time == 3.0


class TestJobMetrics:
    def test_makespan(self):
        job = JobMetrics(job_id=0, submit_time=1.0, finish_time=4.0)
        assert job.makespan == 3.0

    def test_totals(self):
        job = JobMetrics(job_id=0)
        job.tasks = [task(), task()]
        job.tasks[0].shuffle_fetch_local_time = 0.1
        job.tasks[1].shuffle_fetch_remote_time = 0.3
        assert job.total_shuffle_fetch_time() == pytest.approx(0.4)


class TestMetricsCollector:
    def test_job_ids_increment(self):
        collector = MetricsCollector()
        a = collector.new_job("a", 0.0)
        b = collector.new_job("b", 1.0)
        assert b.job_id == a.job_id + 1

    def test_task_attached_to_job(self):
        collector = MetricsCollector()
        job = collector.new_job("a", 0.0)
        tm = collector.new_task_metrics(job, stage_id=3, partition=2)
        assert tm in job.tasks
        assert tm.stage_id == 3
        assert tm.partition == 2
        assert tm.job_id == job.job_id

    def test_last_job(self):
        collector = MetricsCollector()
        with pytest.raises(RuntimeError):
            collector.last_job()
        collector.new_job("a", 0.0)
        b = collector.new_job("b", 0.0)
        assert collector.last_job() is b

    def test_makespan_summaries(self):
        collector = MetricsCollector()
        for submit, finish in ((0.0, 1.0), (0.0, 3.0)):
            job = collector.new_job("x", submit)
            job.finish_time = finish
        assert collector.mean_makespan() == 2.0
        # Nearest-rank: ceil(2 * 50/100) = rank 1 -> the lower span.
        assert collector.percentile_makespan(50) == 1.0
        assert collector.percentile_makespan(0) == 1.0

    def test_percentile_nearest_rank(self):
        collector = MetricsCollector()
        for finish in (1.0, 2.0, 3.0, 4.0, 5.0):
            job = collector.new_job("x", 0.0)
            job.finish_time = finish
        # rank = ceil(5 * pct / 100), 1-indexed into the sorted spans.
        assert collector.percentile_makespan(20) == 1.0
        assert collector.percentile_makespan(50) == 3.0
        assert collector.percentile_makespan(90) == 5.0
        assert collector.percentile_makespan(95) == 5.0
        assert collector.percentile_makespan(100) == 5.0

    def test_percentile_single_span(self):
        collector = MetricsCollector()
        job = collector.new_job("x", 0.0)
        job.finish_time = 7.0
        for pct in (0, 1, 50, 99, 100):
            assert collector.percentile_makespan(pct) == 7.0

    def test_empty_summaries(self):
        collector = MetricsCollector()
        assert collector.mean_makespan() == 0.0
        assert collector.percentile_makespan(95) == 0.0
        assert collector.locality_fractions() == {}

    def test_locality_fractions(self):
        collector = MetricsCollector()
        job = collector.new_job("x", 0.0)
        job.tasks = [task(locality="ANY"), task(locality="PROCESS_LOCAL"),
                     task(locality="PROCESS_LOCAL"), task(locality="ANY")]
        fractions = collector.locality_fractions()
        assert fractions["ANY"] == 0.5
        assert fractions["PROCESS_LOCAL"] == 0.5

    def test_total_tasks(self):
        collector = MetricsCollector()
        job = collector.new_job("x", 0.0)
        collector.new_task_metrics(job, 0, 0)
        collector.new_task_metrics(job, 0, 1)
        assert collector.total_tasks() == 2
