"""Retries, blacklisting, and fetch-failure stage resubmission."""

from __future__ import annotations

import pytest

from repro import StarkConfig, StarkContext
from repro.cluster.cluster import Cluster
from repro.engine.failure import FailureInjector
from repro.engine.fault_tolerance import (
    BlacklistTracker,
    FetchFailedError,
    retry_backoff,
)
from repro.obs.events import (
    ExecutorBlacklisted,
    FetchFailed,
    StageResubmitted,
    TaskRetried,
)


def make_context(seed: int = 3, **config_kwargs) -> StarkContext:
    config = StarkConfig(**config_kwargs)
    cluster = Cluster(num_workers=4, cores_per_worker=2,
                      memory_per_worker=1e9, seed=seed)
    return StarkContext(cluster=cluster, config=config)


def collect_events(sc: StarkContext, types):
    events = []
    sc.event_bus.subscribe(
        lambda e: events.append(e) if isinstance(e, types) else None)
    return events


class TestRetryBackoff:
    def test_exponential_growth(self):
        assert retry_backoff(0.5, 1, 0.0, 0.0) == 0.5
        assert retry_backoff(0.5, 2, 0.0, 0.0) == 1.0
        assert retry_backoff(0.5, 3, 0.0, 0.0) == 2.0

    def test_jitter_is_multiplicative(self):
        assert retry_backoff(0.5, 3, 0.2, 0.5) == pytest.approx(0.5 * 4 * 1.1)

    def test_zero_base_disables_backoff(self):
        assert retry_backoff(0.0, 5, 0.2, 0.9) == 0.0


class TestTaskRetries:
    def test_failed_attempts_are_retried_and_results_correct(self):
        sc = make_context(task_failure_prob=0.15)
        retried = collect_events(sc, TaskRetried)
        data = list(range(500))
        result = sorted(sc.parallelize(data, 16)
                        .map(lambda x: x + 1).collect())
        assert result == [x + 1 for x in data]
        job = sc.metrics.last_job()
        failed = [t for t in job.tasks if t.status == "failed"]
        assert failed, "15% failure prob over 16 tasks should fail some"
        assert len(retried) == len(failed)
        for t in failed:
            assert t.duration > 0  # partial work is still charged

    def test_retry_lands_on_different_worker_when_possible(self):
        sc = make_context(task_failure_prob=0.3)
        for _ in range(4):
            sc.parallelize(list(range(200)), 8).count()
        for job in sc.metrics.jobs:
            by_partition = {}
            for t in job.tasks:
                by_partition.setdefault((t.stage_id, t.partition),
                                        []).append(t)
            for attempts in by_partition.values():
                attempts.sort(key=lambda t: t.attempt)
                for prev, cur in zip(attempts, attempts[1:]):
                    if prev.status == "failed" and not cur.speculative:
                        assert cur.worker_id != prev.worker_id

    def test_job_aborts_at_max_task_failures(self):
        sc = make_context(task_failure_prob=1.0, max_task_failures=3,
                          task_retry_backoff=0.01)
        with pytest.raises(RuntimeError, match="failed"):
            sc.parallelize(list(range(100)), 4).count()

    def test_results_identical_with_and_without_failures(self):
        outputs = []
        for prob in (0.0, 0.25):
            sc = make_context(seed=9, task_failure_prob=prob,
                              max_task_failures=10)
            data = [(i % 7, i) for i in range(400)]
            rdd = sc.parallelize(data, 8).reduce_by_key(lambda a, b: a + b)
            outputs.append(sorted(rdd.collect()))
        assert outputs[0] == outputs[1]


class TestBlacklist:
    def test_trips_at_exact_threshold(self):
        tracker = BlacklistTracker(max_failures_per_executor_stage=2,
                                   max_failures_per_executor=4,
                                   blacklist_timeout=60.0)
        assert tracker.record_failure(1, 10, now=0.0) == []
        tripped = tracker.record_failure(1, 10, now=1.0)
        assert tripped == [(1, 10, 2, 61.0)]
        assert tracker.is_blacklisted(1, 10, now=1.0)
        assert not tracker.is_blacklisted(1, 11, now=1.0)
        assert not tracker.is_blacklisted(2, 10, now=1.0)

    def test_app_level_trip_excludes_all_stages(self):
        tracker = BlacklistTracker(max_failures_per_executor_stage=2,
                                   max_failures_per_executor=4,
                                   blacklist_timeout=60.0)
        for stage, now in ((10, 0.0), (11, 1.0), (12, 2.0)):
            tracker.record_failure(1, stage, now)
        tripped = tracker.record_failure(1, 13, now=3.0)
        assert (1, -1, 4, 63.0) in tripped
        assert tracker.is_blacklisted(1, 99, now=3.0)

    def test_expiry_restores_eligibility_and_resets_counters(self):
        tracker = BlacklistTracker(max_failures_per_executor_stage=2,
                                   max_failures_per_executor=4,
                                   blacklist_timeout=60.0)
        tracker.record_failure(1, 10, now=0.0)
        tracker.record_failure(1, 10, now=0.0)
        assert tracker.is_blacklisted(1, 10, now=59.9)
        assert not tracker.is_blacklisted(1, 10, now=60.1)
        # counters reset on expiry: one more failure must NOT re-trip
        assert tracker.record_failure(1, 10, now=61.0) == []
        assert not tracker.is_blacklisted(1, 10, now=61.0)

    def test_blacklisted_until_reports_latest_scope(self):
        tracker = BlacklistTracker(max_failures_per_executor_stage=2,
                                   max_failures_per_executor=4,
                                   blacklist_timeout=60.0)
        tracker.record_failure(1, 10, now=0.0)
        tracker.record_failure(1, 10, now=5.0)
        assert tracker.blacklisted_until(1, 10, now=5.0) == 65.0
        assert tracker.blacklisted_until(1, 11, now=5.0) == 0.0
        assert tracker.blacklisted_until(1, 10, now=70.0) == 0.0

    def test_scheduler_posts_blacklist_events(self):
        sc = make_context(task_failure_prob=0.5,
                          max_failures_per_executor_stage=1,
                          max_task_failures=8,
                          task_retry_backoff=0.001)
        events = collect_events(sc, ExecutorBlacklisted)
        sc.parallelize(list(range(300)), 12).count()
        assert events, "50% failures with threshold 1 must blacklist"
        for e in events:
            assert e.until > e.time

    @pytest.mark.parametrize("knob", ["max_failures_per_executor_stage",
                                      "max_failures_per_executor"])
    def test_zero_threshold_rejected(self, knob):
        # The tracker trips when a count reaches its threshold right
        # after an increment, so 0 would silently switch blacklisting off.
        with pytest.raises(ValueError, match=knob):
            make_context(**{knob: 0})


class TestFetchFailureResubmission:
    def _shuffle_rdd(self, sc):
        data = [(i % 5, i) for i in range(300)]
        return sc.parallelize(data, 8).reduce_by_key(lambda a, b: a + b)

    def test_dead_server_triggers_stage_resubmission(self):
        sc = make_context(external_shuffle_service=False)
        fetch_events = collect_events(sc, FetchFailed)
        resubmits = collect_events(sc, StageResubmitted)
        rdd = self._shuffle_rdd(sc)
        expected = sorted(rdd.collect())
        FailureInjector(sc).kill_worker(1)
        again = sorted(rdd.collect())
        assert again == expected
        assert fetch_events and resubmits
        assert all(e.worker_id == 1 for e in fetch_events)
        assert all(e.attempt >= 1 for e in resubmits)

    def test_external_shuffle_service_serves_dead_workers_outputs(self):
        sc = make_context()  # external_shuffle_service=True by default
        resubmits = collect_events(sc, StageResubmitted)
        rdd = self._shuffle_rdd(sc)
        expected = sorted(rdd.collect())
        FailureInjector(sc).kill_worker(1)
        again = sorted(rdd.collect())
        assert again == expected
        assert resubmits == []  # outputs stayed servable: no resubmission

    def test_lose_disk_recomputes_proactively_without_fetch_failures(self):
        sc = make_context(external_shuffle_service=False)
        fetch_events = collect_events(sc, FetchFailed)
        rdd = self._shuffle_rdd(sc)
        expected = sorted(rdd.collect())
        FailureInjector(sc).kill_worker(1, lose_disk=True)
        again = sorted(rdd.collect())
        assert again == expected
        # unregistered outputs are recomputed up front by the DAG
        # scheduler, never discovered mid-reduce as fetch failures
        assert fetch_events == []

    def test_resubmission_bounded_by_max_stage_attempts(self):
        sc = make_context(external_shuffle_service=False,
                          max_stage_attempts=1)
        rdd = self._shuffle_rdd(sc)
        rdd.collect()
        FailureInjector(sc).kill_worker(1)
        # worker 1's outputs are gone and the single allowed attempt
        # cannot regenerate-and-retry, so the job must surface the error
        with pytest.raises(FetchFailedError):
            rdd.collect()

    def test_transient_fetch_failures_recover(self):
        # keep the per-fetch probability low: every resubmission re-rolls
        # every fetch, so a high rate would exhaust max_stage_attempts
        sc = make_context(seed=5, external_shuffle_service=False,
                          fetch_failure_prob=0.005, max_stage_attempts=10)
        fetch_events = collect_events(sc, FetchFailed)
        results = []
        for _ in range(6):
            rdd = self._shuffle_rdd(sc)
            results.append(sorted(rdd.collect()))
        assert all(r == results[0] for r in results)
        assert fetch_events, "5% fetch failures over 6 jobs should fire"
