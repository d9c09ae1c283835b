"""UtilizationSampler timelines from synthetic event streams."""

import pytest

from repro.obs import UtilizationSampler
from repro.obs.events import BlockCached, BlockEvicted, TaskEnd


def task_end(worker_id, start, end, task_id=0):
    return TaskEnd(
        time=end, job_id=0, stage_id=0, task_id=task_id, partition=0,
        worker_id=worker_id, locality="ANY", duration=end - start,
        launch_overhead=0.0, cache_read_time=0.0, compute_time=end - start,
        shuffle_fetch_local_time=0.0, shuffle_fetch_remote_time=0.0,
        shuffle_write_time=0.0, checkpoint_read_time=0.0,
        source_read_time=0.0, gc_time=0.0,
    )


class TestSlotOccupancy:
    def test_single_worker(self):
        s = UtilizationSampler()
        s.on_event(task_end(0, 0.0, 2.0, task_id=0))
        s.on_event(task_end(0, 1.0, 3.0, task_id=1))
        assert s.slot_occupancy(0) == [
            (0.0, 1.0), (1.0, 2.0), (2.0, 1.0), (3.0, 0.0)]

    def test_cluster_wide_sums_workers(self):
        s = UtilizationSampler()
        s.on_event(task_end(0, 0.0, 2.0, task_id=0))
        s.on_event(task_end(1, 0.0, 2.0, task_id=1))
        assert s.slot_occupancy() == [(0.0, 2.0), (2.0, 0.0)]
        assert s.slot_occupancy(0) == [(0.0, 1.0), (2.0, 0.0)]


class TestCacheBytes:
    def test_cache_and_evict(self):
        s = UtilizationSampler()
        s.on_event(BlockCached(time=1.0, worker_id=0, rdd_id=1, partition=0,
                               size_bytes=100.0))
        s.on_event(BlockCached(time=2.0, worker_id=0, rdd_id=1, partition=1,
                               size_bytes=50.0))
        s.on_event(BlockEvicted(time=3.0, worker_id=0, rdd_id=1, partition=0,
                                reason="capacity"))
        assert s.cache_bytes(0) == [(1.0, 100.0), (2.0, 150.0), (3.0, 50.0)]

    def test_recache_replaces_size(self):
        s = UtilizationSampler()
        s.on_event(BlockCached(time=1.0, worker_id=0, rdd_id=1, partition=0,
                               size_bytes=100.0))
        s.on_event(BlockCached(time=2.0, worker_id=0, rdd_id=1, partition=0,
                               size_bytes=80.0))
        assert s.cache_bytes(0)[-1] == (2.0, 80.0)

    def test_unknown_eviction_ignored(self):
        s = UtilizationSampler()
        s.on_event(BlockEvicted(time=1.0, worker_id=0, rdd_id=9, partition=0,
                                reason="capacity"))
        assert s.cache_bytes() == []


class TestFinalFlush:
    def test_flush_extends_timelines_to_run_end(self):
        s = UtilizationSampler()
        s.on_event(task_end(0, 0.0, 2.0, task_id=0))
        s.on_event(BlockCached(time=1.0, worker_id=0, rdd_id=1, partition=0,
                               size_bytes=100.0))
        s.on_event(task_end(0, 3.0, 5.0, task_id=1))
        # Without a flush the cache timeline dangles at its last change.
        assert s.cache_bytes(0)[-1] == (1.0, 100.0)
        assert s.flush() == 5.0  # defaults to the last event seen
        # Flush appends a closing sample carrying the final value.
        assert s.cache_bytes(0)[-1] == (5.0, 100.0)
        assert s.slot_occupancy(0)[-1] == (5.0, 0.0)

    def test_flush_with_explicit_end(self):
        s = UtilizationSampler()
        s.on_event(BlockCached(time=1.0, worker_id=0, rdd_id=1, partition=0,
                               size_bytes=100.0))
        s.flush(t_end=10.0)
        assert s.cache_bytes(0)[-1] == (10.0, 100.0)

    def test_flush_at_last_sample_is_a_noop(self):
        s = UtilizationSampler()
        s.on_event(task_end(0, 0.0, 2.0))
        before = s.slot_occupancy(0)
        s.flush()  # last event time == last sample time: nothing to add
        assert s.slot_occupancy(0) == before

    def test_flush_closes_mean_window(self):
        # One slot busy from 0..2, then idle until the flush at 4: the
        # time-weighted mean halves once the idle tail is visible.
        s = UtilizationSampler()
        s.on_event(task_end(0, 0.0, 2.0))
        s.flush(t_end=4.0)
        timeline = s.slot_occupancy(0)
        area = sum(level * (t_next - t)
                   for (t, level), (t_next, _) in zip(timeline, timeline[1:]))
        span = timeline[-1][0] - timeline[0][0]
        assert area / span == pytest.approx(0.5)
