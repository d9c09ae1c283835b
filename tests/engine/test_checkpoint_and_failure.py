"""Tests for checkpointing and failure recovery."""

import pytest

from repro import StarkContext
from repro.engine.context import STORAGE_MEMORY_FRACTION
from repro.engine.failure import FailureInjector
from repro.engine.partitioner import HashPartitioner

from ..conftest import make_pairs


class TestCheckpointStore:
    def test_force_checkpoint_persists_partitions(self, sc):
        rdd = sc.parallelize(make_pairs(50), 4).partition_by(HashPartitioner(4))
        rdd.count()
        rdd.force_checkpoint()
        assert rdd.checkpointed
        assert sc.checkpoint_store.has_checkpoint(rdd.rdd_id)
        assert sc.checkpoint_store.checkpoint_bytes(rdd.rdd_id) > 0

    def test_checkpoint_data_matches_recompute(self, sc):
        rdd = sc.parallelize(make_pairs(50), 4).reduce_by_key(lambda a, b: a + b)
        before = dict(rdd.collect())
        rdd.force_checkpoint()
        after = dict(rdd.collect())
        assert before == after

    def test_checkpoint_truncates_recovery_lineage(self, sc):
        rdd = sc.parallelize(make_pairs(300), 4).partition_by(
            HashPartitioner(4)
        ).map_values(lambda v: v * 2)
        rdd.count()
        rdd.force_checkpoint()
        # Even if shuffle outputs vanish, the checkpoint serves reads.
        for wid in sc.cluster.worker_ids:
            sc.map_output_tracker.remove_outputs_on_worker(wid)
        assert rdd.count() == 300

    def test_history_records_commits(self, sc):
        rdd = sc.parallelize(make_pairs(10), 2)
        rdd.count()
        rdd.force_checkpoint()
        assert len(sc.checkpoint_store.history) == 1
        record = sc.checkpoint_store.history[0]
        assert record.rdd_id == rdd.rdd_id
        assert record.total_bytes > 0

    def test_total_bytes_accumulates(self, sc):
        a = sc.parallelize(make_pairs(10), 2)
        b = sc.parallelize(make_pairs(10), 2)
        a.count(), b.count()
        a.force_checkpoint()
        first = sc.checkpoint_store.total_bytes_written
        b.force_checkpoint()
        assert sc.checkpoint_store.total_bytes_written > first


class TestFailureRecovery:
    def test_kill_worker_loses_cached_blocks(self, sc):
        rdd = sc.parallelize(make_pairs(100), 4).partition_by(
            HashPartitioner(4)
        ).cache()
        rdd.count()
        injector = FailureInjector(sc)
        victim = next(iter(sc.block_manager_master.locations((rdd.rdd_id, 0))))
        report = injector.kill_worker(victim)
        assert report.lost_blocks > 0
        assert not sc.cluster.get_worker(victim).alive

    def test_job_correct_after_failure(self, sc):
        rdd = sc.parallelize(make_pairs(100), 4).partition_by(
            HashPartitioner(4)
        ).cache()
        expected = rdd.count()
        FailureInjector(sc).kill_worker(0)
        assert rdd.count() == expected

    def test_recovery_slower_than_warm_baseline(self, sc):
        rdd = sc.parallelize(make_pairs(2000), 4).partition_by(
            HashPartitioner(4)
        ).cache()
        injector = FailureInjector(sc)
        rdd.count()
        victim = next(iter(sc.block_manager_master.locations((rdd.rdd_id, 0))))
        report = injector.measure_recovery(rdd, victim)
        assert report.recovery_delay > report.baseline_delay
        assert report.slowdown > 1.0

    def test_checkpoint_bounds_recovery(self, sc):
        """With a checkpoint, recovery reads it instead of re-running the
        lineage — recovery must be cheaper than without."""

        def build(ctx):
            return ctx.parallelize(make_pairs(2000), 4).partition_by(
                HashPartitioner(4)
            ).map_values(lambda v: v + 1).cache()

        from repro import StarkContext

        def victim_for(ctx, rdd):
            rdd.count()
            return next(iter(
                ctx.block_manager_master.locations((rdd.rdd_id, 0))
            ))

        plain_ctx = StarkContext(num_workers=4, cores_per_worker=2)
        plain = build(plain_ctx)
        rep_plain = FailureInjector(plain_ctx).measure_recovery(
            plain, victim_for(plain_ctx, plain), lose_disk=True
        )

        ck_ctx = StarkContext(num_workers=4, cores_per_worker=2)
        ck = build(ck_ctx)
        ck.count()
        ck.force_checkpoint()
        rep_ck = FailureInjector(ck_ctx).measure_recovery(
            ck, victim_for(ck_ctx, ck), lose_disk=True
        )
        assert rep_ck.recovery_delay < rep_plain.recovery_delay

    def test_restart_worker_rejoins(self, sc):
        injector = FailureInjector(sc)
        injector.kill_worker(1)
        injector.restart_worker(1)
        assert sc.cluster.get_worker(1).alive
        rdd = sc.parallelize(make_pairs(10), 2)
        assert rdd.count() == 10

    def test_lose_disk_forces_map_rerun(self, sc):
        rdd = sc.parallelize(make_pairs(100), 4).partition_by(
            HashPartitioner(4)
        ).cache()
        rdd.count()
        injector = FailureInjector(sc)
        report = injector.kill_worker(0, lose_disk=True)
        # At least the worker's own map outputs are gone.
        assert rdd.count() == 100
        job = sc.metrics.last_job()
        if report.lost_shuffle_outputs:
            assert job.skipped_stages == 0


class TestFailureSchedule:
    def test_scheduled_kill_fires_when_pumped(self, sc):
        from repro.engine.failure import FailureEvent, FailureSchedule

        schedule = FailureSchedule(sc, [FailureEvent(time=1.0, worker_id=0)])
        assert sc.cluster.get_worker(0).alive
        sc.cluster.clock.advance_to(2.0)
        schedule.pump()
        assert not sc.cluster.get_worker(0).alive
        assert len(schedule.fired) == 1

    def test_restart_after(self, sc):
        from repro.engine.failure import FailureEvent, FailureSchedule

        schedule = FailureSchedule(sc, [
            FailureEvent(time=1.0, worker_id=1, restart_after=2.0),
        ])
        sc.cluster.clock.advance_to(1.5)
        schedule.pump()
        assert not sc.cluster.get_worker(1).alive
        sc.cluster.clock.advance_to(4.0)
        schedule.pump()
        assert sc.cluster.get_worker(1).alive

    def test_jobs_survive_scheduled_failures(self, sc):
        from repro.engine.failure import FailureEvent, FailureSchedule
        from repro.engine.partitioner import HashPartitioner
        from ..conftest import make_pairs

        rdd = sc.parallelize(make_pairs(500), 4).partition_by(
            HashPartitioner(4)
        ).cache()
        expected = rdd.count()
        schedule = FailureSchedule(sc, [
            FailureEvent(time=sc.now + 0.001, worker_id=2),
        ])
        sc.cluster.clock.advance_by(0.01)
        schedule.pump()
        assert rdd.count() == expected

    def test_events_sorted(self, sc):
        from repro.engine.failure import FailureEvent, FailureSchedule

        schedule = FailureSchedule(sc, [
            FailureEvent(time=5.0, worker_id=0),
            FailureEvent(time=1.0, worker_id=1),
        ])
        assert [e.time for e in schedule.events] == [1.0, 5.0]


class TestRestartPath:
    """kill -> restart -> rerun: the restarted executor re-registers with
    an empty cache, becomes schedulable, and driver-side cache
    bookkeeping stays consistent."""

    def cached_victim(self, sc):
        rdd = sc.parallelize(make_pairs(200), 8).cache()
        rdd.count()
        victim = next(
            w for w in sc.cluster.alive_worker_ids()
            if sc.block_manager_master.stores[w].used_bytes > 0)
        return rdd, victim

    def test_restart_reregisters_empty_store(self, sc):
        rdd, victim = self.cached_victim(sc)
        injector = FailureInjector(sc)
        injector.kill_worker(victim)
        injector.restart_worker(victim)
        bmm = sc.block_manager_master
        store = bmm.stores[victim]
        assert store.used_bytes == 0
        worker = sc.cluster.get_worker(victim)
        assert store.capacity_bytes == pytest.approx(
            worker.memory_bytes * STORAGE_MEMORY_FRACTION)
        # No stale location entries survive the kill.
        for pid in range(rdd.num_partitions):
            assert victim not in bmm.locations((rdd.rdd_id, pid))

    def test_restarted_worker_is_schedulable(self, sc):
        _, victim = self.cached_victim(sc)
        injector = FailureInjector(sc)
        injector.kill_worker(victim)
        injector.restart_worker(victim)
        restart_time = sc.cluster.clock.now
        assert victim in sc.cluster.alive_worker_ids()
        # A wide job (more partitions than the other workers' slots)
        # must land tasks on the restarted executor.
        wide = sc.parallelize(make_pairs(1600), 16)
        assert wide.count() == 1600
        worker = sc.cluster.get_worker(victim)
        assert max(worker.slot_free_times) > restart_time

    def test_rerun_recaches_on_survivors_and_restartee(self, sc):
        rdd, victim = self.cached_victim(sc)
        injector = FailureInjector(sc)
        injector.kill_worker(victim)
        injector.restart_worker(victim)
        assert rdd.count() == 200
        bmm = sc.block_manager_master
        for pid in range(rdd.num_partitions):
            assert bmm.locations((rdd.rdd_id, pid))

    def test_tracker_consistent_across_kill_restart_rerun(self, sc):
        rdd, victim = self.cached_victim(sc)
        tracker = sc.cache_manager.tracker
        tracker.expect(rdd.rdd_id, uses=2)
        assert tracker.declared(rdd.rdd_id) == 2
        injector = FailureInjector(sc)
        injector.kill_worker(victim)
        injector.restart_worker(victim)
        # A kill/restart cycle must not leak or drop references.
        assert tracker.declared(rdd.rdd_id) == 2
        rdd.count()  # consumes one declared use
        assert tracker.declared(rdd.rdd_id) == 1
        # No pending references linger once the job completed.
        assert tracker.ref_count(rdd.rdd_id) == 1

    def test_policy_binding_survives_restart(self, sc):
        _, victim = self.cached_victim(sc)
        store = sc.block_manager_master.stores[victim]
        policy_before = store.policy
        injector = FailureInjector(sc)
        injector.kill_worker(victim)
        injector.restart_worker(victim)
        # The store object (and its policy) survives the cycle, but the
        # policy's bookkeeping is wiped along with the blocks.
        assert sc.block_manager_master.stores[victim] is store
        assert store.policy is policy_before
        assert type(store.policy) is type(
            sc.cache_manager.policy_for_worker(victim))
        assert len(store.policy) == 0
