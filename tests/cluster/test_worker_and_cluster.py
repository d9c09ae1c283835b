"""Tests for worker slot accounting and the cluster container.

Slot mutations go through the SimKernel (the single time authority);
workers themselves only expose read views.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.events import SimKernel
from repro.cluster.worker import Worker


def attached(cores=2):
    """A worker registered with a fresh kernel; returns (kernel, worker)."""
    kernel = SimKernel()
    worker = Worker(0, cores=cores)
    kernel.register_worker(worker)
    return kernel, worker


class TestWorker:
    def test_slots_start_free(self):
        w = Worker(0, cores=2)
        assert w.earliest_free_time() == 0.0
        assert w.idle_slots(0.0) == 2

    def test_run_task_occupies_slot(self):
        kernel, w = attached(cores=2)
        start, finish = kernel.run_on_earliest_slot(w, 1.0, 3.0)
        assert (start, finish) == (1.0, 4.0)
        assert w.idle_slots(2.0) == 1

    def test_tasks_fill_both_slots_before_queueing(self):
        kernel, w = attached(cores=2)
        kernel.run_on_earliest_slot(w, 0.0, 5.0)
        kernel.run_on_earliest_slot(w, 0.0, 5.0)
        start, _ = kernel.run_on_earliest_slot(w, 0.0, 1.0)
        assert start == 5.0

    def test_earliest_free_slot_picks_minimum(self):
        kernel, w = attached(cores=3)
        for slot, t in enumerate([4.0, 1.0, 9.0]):
            kernel.set_slot_free_time(w, slot, t)
        slot, free = w.earliest_free_slot()
        assert (slot, free) == (1, 1.0)

    def test_bare_worker_reads_fall_back_to_scan(self):
        w = Worker(0, cores=3)
        w.slot_free_times = [4.0, 1.0, 9.0]
        assert w.earliest_free_slot() == (1, 1.0)
        assert w.earliest_free_time() == 1.0

    def test_negative_duration_rejected(self):
        kernel, w = attached()
        with pytest.raises(ValueError):
            kernel.run_on_earliest_slot(w, 0.0, -1.0)

    def test_kill_blocks_new_tasks(self):
        kernel, w = attached()
        kernel.kill_worker(w)
        assert not w.alive
        with pytest.raises(RuntimeError):
            kernel.occupy_slot(w, 0, 6.0, 1.0)

    def test_restart_frees_slots_at_now(self):
        kernel, w = attached(cores=2)
        kernel.kill_worker(w)
        kernel.restart_worker(w, at=8.0)
        assert w.alive
        assert w.earliest_free_time() == 8.0

    def test_pending_work(self):
        kernel, w = attached(cores=2)
        kernel.run_on_earliest_slot(w, 0.0, 4.0)
        assert w.pending_work_until(1.0) == pytest.approx(3.0)

    def test_reset(self):
        kernel, w = attached()
        kernel.run_on_earliest_slot(w, 0.0, 10.0)
        w.shuffle_disk[0] = {(0, 0): 5.0}
        kernel.reset_worker(w)
        w.shuffle_disk.clear()
        assert w.earliest_free_time() == 0.0
        assert not w.shuffle_disk

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Worker(0, cores=0)
        with pytest.raises(ValueError):
            Worker(0, memory_bytes=0)


class TestCluster:
    def test_creates_workers(self):
        cluster = Cluster(num_workers=5)
        assert len(cluster) == 5
        assert cluster.worker_ids == [0, 1, 2, 3, 4]

    def test_total_cores(self):
        cluster = Cluster(num_workers=3, cores_per_worker=4)
        assert cluster.total_cores() == 12

    def test_kill_removes_from_alive(self):
        cluster = Cluster(num_workers=3)
        cluster.kill_worker(1)
        assert cluster.alive_worker_ids() == [0, 2]
        assert cluster.total_cores() == 2 * cluster.get_worker(0).cores

    def test_earliest_free_worker(self):
        cluster = Cluster(num_workers=3, cores_per_worker=1)
        cluster.kernel.run_on_earliest_slot(cluster.get_worker(0), 0.0, 5.0)
        cluster.kernel.run_on_earliest_slot(cluster.get_worker(1), 0.0, 2.0)
        assert cluster.earliest_free_worker() == 2

    def test_earliest_free_worker_candidates(self):
        cluster = Cluster(num_workers=3, cores_per_worker=1)
        cluster.kernel.run_on_earliest_slot(cluster.get_worker(1), 0.0, 5.0)
        assert cluster.earliest_free_worker([1, 2]) == 2

    def test_earliest_free_all_dead_raises(self):
        cluster = Cluster(num_workers=1)
        cluster.kill_worker(0)
        with pytest.raises(RuntimeError):
            cluster.earliest_free_worker()

    def test_unknown_worker_raises(self):
        with pytest.raises(KeyError):
            Cluster(num_workers=1).get_worker(9)

    def test_reset(self):
        cluster = Cluster(num_workers=2)
        cluster.kernel.advance_to(50.0)
        cluster.kill_worker(0)
        cluster.reset()
        assert cluster.clock.now == 0.0
        assert cluster.get_worker(0).alive

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Cluster(num_workers=0)
