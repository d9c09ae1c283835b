"""Driver-side reference counting over (fake) lineage DAGs.

The tracker is duck-typed: anything with ``rdd_id`` / ``cached`` /
``narrow_dependencies()`` passes for an RDD, and anything with
``stage_id`` / ``rdd`` for a stage, so these tests build tiny in-memory
DAGs without an engine.
"""

import pytest

from repro.cache.reference_tracker import ReferenceTracker
from repro.engine.context import StarkConfig, StarkContext


class FakeDep:
    def __init__(self, rdd):
        self.rdd = rdd


class FakeRDD:
    def __init__(self, rdd_id, parents=(), cached=False):
        self.rdd_id = rdd_id
        self.cached = cached
        self._parents = list(parents)

    def narrow_dependencies(self):
        return [FakeDep(p) for p in self._parents]


class FakeStage:
    _ids = iter(range(10_000))

    def __init__(self, rdd):
        self.stage_id = next(FakeStage._ids)
        self.rdd = rdd


def chain(*cached_flags):
    """source -> ... -> sink; returns the RDD list, index = depth."""
    rdds = []
    for i, cached in enumerate(cached_flags):
        parents = [rdds[-1]] if rdds else []
        rdds.append(FakeRDD(i, parents, cached=cached))
    return rdds


def complete_job(tracker, rdd, job_id):
    """Run one single-stage job over ``rdd`` to completion."""
    stage = FakeStage(rdd)
    tracker.on_job_submit(job_id, rdd, [stage])
    tracker.on_stage_complete(job_id, stage.stage_id)
    tracker.on_job_complete(job_id)


class TestPendingRefs:
    def test_stage_references_cached_narrow_closure(self):
        rdds = chain(True, False, True)
        tracker = ReferenceTracker()
        stage = FakeStage(rdds[-1])
        tracker.on_job_submit(1, rdds[-1], [stage])
        assert tracker.ref_count(0) == 1
        assert tracker.ref_count(1) == 0  # not cached: never counted
        assert tracker.ref_count(2) == 1

    def test_stage_completion_releases(self):
        rdds = chain(True, False, True)
        tracker = ReferenceTracker()
        stage = FakeStage(rdds[-1])
        tracker.on_job_submit(1, rdds[-1], [stage])
        tracker.on_stage_complete(1, stage.stage_id)
        assert tracker.ref_count(0) == 0
        assert tracker.ref_count(2) == 0

    def test_two_stages_hold_independent_refs(self):
        shared = FakeRDD(0, cached=True)
        left = FakeRDD(1, [shared])
        right = FakeRDD(2, [shared])
        tracker = ReferenceTracker()
        s1, s2 = FakeStage(left), FakeStage(right)
        tracker.on_job_submit(1, right, [s1, s2])
        assert tracker.ref_count(0) == 2
        tracker.on_stage_complete(1, s1.stage_id)
        assert tracker.ref_count(0) == 1
        tracker.on_stage_complete(1, s2.stage_id)
        assert tracker.ref_count(0) == 0

    def test_diamond_counted_once_per_stage(self):
        source = FakeRDD(0, cached=True)
        a = FakeRDD(1, [source])
        b = FakeRDD(2, [source])
        sink = FakeRDD(3, [a, b], cached=True)
        tracker = ReferenceTracker()
        tracker.on_job_submit(1, sink, [FakeStage(sink)])
        assert tracker.ref_count(0) == 1  # one stage, one ref

    def test_job_complete_releases_leftovers(self):
        rdds = chain(True)
        tracker = ReferenceTracker()
        tracker.on_job_submit(1, rdds[0], [FakeStage(rdds[0])])
        tracker.on_job_complete(1)  # stage never reported complete
        assert tracker.ref_count(0) == 0


class TestDeclaredRefs:
    def test_expect_adds_and_jobs_drain(self):
        rdd = FakeRDD(0, cached=True)
        tracker = ReferenceTracker()
        tracker.expect(0, uses=2)
        assert tracker.ref_count(0) == 2
        for job_id in (1, 2):
            stage = FakeStage(rdd)
            tracker.on_job_submit(job_id, rdd, [stage])
            tracker.on_stage_complete(job_id, stage.stage_id)
            tracker.on_job_complete(job_id)
        assert tracker.ref_count(0) == 0
        assert tracker.declared(0) == 0

    def test_untouched_jobs_do_not_drain(self):
        tracker = ReferenceTracker()
        tracker.expect(7, uses=1)
        other = FakeRDD(0, cached=True)
        tracker.on_job_submit(1, other, [FakeStage(other)])
        tracker.on_job_complete(1)
        assert tracker.declared(7) == 1

    def test_expect_rejects_nonpositive(self):
        tracker = ReferenceTracker()
        with pytest.raises(ValueError):
            tracker.expect(0, uses=0)


class TestAutoUnpersist:
    """Auto-unpersist is deleted: the tracker holds no way to drop an
    RDD.  A drained declaration only lowers the count and tells
    ``fall_fn``, so LRC and cost eviction take the blocks first."""

    def test_never_fires_without_declaration(self):
        fallen = []
        tracker = ReferenceTracker(fall_fn=fallen.append)
        rdd = FakeRDD(0, cached=True)
        for job_id in range(1, 5):
            complete_job(tracker, rdd, job_id)
        assert tracker.ref_count(0) == 0
        assert fallen == [0] * 4  # one pending release per job

    def test_never_fires_when_disabled(self):
        fallen = []
        tracker = ReferenceTracker(fall_fn=fallen.append)
        rdd = FakeRDD(0, cached=True)
        tracker.expect(0, uses=2)
        complete_job(tracker, rdd, 1)
        assert tracker.ref_count(0) == 1
        complete_job(tracker, rdd, 2)
        assert tracker.declared(0) == 0  # drained, just not dropped
        assert tracker.ref_count(0) == 0
        # Each job: one pending release, one declared use consumed.
        assert fallen == [0] * 4


class TestAbortedJob:
    def test_abort_releases_pending_but_drains_nothing(self):
        fallen = []
        tracker = ReferenceTracker(fall_fn=fallen.append)
        rdds = chain(True, True)
        tracker.expect(0, uses=1)
        first, second = FakeStage(rdds[0]), FakeStage(rdds[1])
        tracker.on_job_submit(1, rdds[1], [first, second])
        tracker.on_stage_complete(1, first.stage_id)
        tracker.on_job_abort(1)
        assert tracker.ref_count(1) == 0
        assert tracker.ref_count(0) == 1  # the declared use is still owed
        assert tracker.declared(0) == 1
        assert fallen == [0, 1, 0]
        # A later completed job drains it as usual.
        complete_job(tracker, rdds[0], 2)
        assert tracker.declared(0) == 0

    @pytest.mark.parametrize("broker", [False, True])
    def test_failed_job_leaves_no_reference(self, broker):
        sc = StarkContext(num_workers=2, cores_per_worker=2,
                          memory_per_worker=1e9,
                          config=StarkConfig(task_failure_prob=1.0,
                                             max_task_failures=3,
                                             cache_broker=broker))
        rdd = sc.parallelize(list(range(20)), 4).cache()
        sc.cache_manager.expect(rdd, uses=1)
        with pytest.raises(RuntimeError, match="aborting job"):
            rdd.count()
        # Nothing is running: only the declared use holds the RDD.
        assert sc.cache_manager.tracker.ref_count(rdd.rdd_id) == 1
        assert sc.cache_manager.tracker.declared(rdd.rdd_id) == 1
