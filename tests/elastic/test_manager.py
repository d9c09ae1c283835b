"""Tests for the ResourceManager: scale-out, graceful decommission,
bounds/cooldowns, and worker-seconds accounting."""

import pytest

from repro import StarkContext, obs
from repro.elastic import (
    BacklogPolicy,
    ResourceManager,
    make_scaling_policy,
    validate_bounds,
)
from repro.engine.context import STORAGE_MEMORY_FRACTION

from ..conftest import make_pairs


def make_manager(sc, policy=None, **kwargs):
    kwargs.setdefault("min_workers", 1)
    kwargs.setdefault("cooldown_seconds", 0.0)
    return ResourceManager(sc, policy or BacklogPolicy(), **kwargs)


def cached_rdd(sc, n=400, partitions=8):
    rdd = sc.parallelize(make_pairs(n), partitions, name="cached").cache()
    rdd.count()
    return rdd


class TestScaleOut:
    def test_adds_worker_with_registered_store(self, sc):
        manager = make_manager(sc)
        before = len(sc.cluster.alive_workers())
        wid = manager.scale_out()
        assert len(sc.cluster.alive_workers()) == before + 1
        store = sc.block_manager_master.stores[wid]
        assert store.used_bytes == 0
        worker = sc.cluster.get_worker(wid)
        assert store.capacity_bytes == pytest.approx(
            worker.memory_bytes * STORAGE_MEMORY_FRACTION)

    def test_spinup_delays_slot_availability(self, sc):
        manager = make_manager(sc)
        now = sc.cluster.clock.now
        spinup = sc.cost_model.worker_spinup_seconds
        wid = manager.scale_out()
        worker = sc.cluster.get_worker(wid)
        assert all(t == pytest.approx(now + spinup)
                   for t in worker.slot_free_times)
        assert manager.scale_outs == 1
        assert manager.peak_workers == len(sc.cluster.alive_workers())

    def test_posts_provisioned_event(self, sc):
        collector = obs.EventCollector()
        sc.event_bus.subscribe(collector)
        manager = make_manager(sc)
        wid = manager.scale_out()
        events = collector.of_type(obs.WorkerProvisioned)
        assert len(events) == 1
        assert events[0].worker_id == wid
        assert events[0].spinup_seconds == sc.cost_model.worker_spinup_seconds

    def test_new_worker_becomes_schedulable(self, sc):
        manager = make_manager(sc)
        wid = manager.scale_out()
        sc.cluster.clock.advance_to(sc.cost_model.worker_spinup_seconds + 1)
        rdd = sc.parallelize(make_pairs(600), 12)
        assert rdd.count() == 600
        assert wid in sc.cluster.alive_worker_ids()


class TestDecommission:
    def test_migrates_all_cached_blocks(self, sc):
        rdd = cached_rdd(sc)
        manager = make_manager(sc)
        victim = next(w for w in sc.cluster.alive_worker_ids()
                      if sc.block_manager_master.stores[w].used_bytes > 0)
        victim_blocks = sorted(
            sc.block_manager_master.stores[victim].block_ids())
        report = manager.decommission(victim)
        assert report.lost_nothing
        assert report.migrated_blocks == len(victim_blocks)
        bmm = sc.block_manager_master
        for block_id in victim_blocks:
            locations = bmm.locations(block_id)
            assert locations, f"{block_id} lost all locations"
            assert victim not in locations
        assert victim not in bmm.stores
        assert victim not in sc.cluster.worker_ids
        assert rdd.count() == 400

    def test_migration_events_reconcile_with_master_state(self, sc):
        """Zero-loss check: BlocksMigrated totals, per-block "migrated"
        removals, and destination caches must all agree with the
        BlockManagerMaster's final state."""
        cached_rdd(sc)
        collector = obs.EventCollector()
        sc.event_bus.subscribe(collector)
        manager = make_manager(sc)
        victim = next(w for w in sc.cluster.alive_worker_ids()
                      if sc.block_manager_master.stores[w].used_bytes > 0)
        victim_blocks = set(
            sc.block_manager_master.stores[victim].block_ids())
        report = manager.decommission(victim)

        migrated = collector.of_type(obs.BlocksMigrated)
        assert len(migrated) == 1
        assert migrated[0].num_blocks == report.migrated_blocks

        removals = [e for e in collector.of_type(obs.BlockEvicted)
                    if e.reason == "migrated"]
        assert {(e.rdd_id, e.partition) for e in removals} == victim_blocks
        assert all(e.worker_id == victim for e in removals)

        decommissioned = collector.of_type(obs.WorkerDecommissioned)
        assert len(decommissioned) == 1
        assert decommissioned[0].dropped_blocks == 0

        bmm = sc.block_manager_master
        for block_id in victim_blocks:
            destinations = bmm.locations(block_id)
            assert destinations
            for dst in destinations:
                assert block_id in bmm.stores[dst]

    def test_drain_covers_running_tasks(self, sc):
        sc.parallelize(make_pairs(2000), 8).count()
        manager = make_manager(sc)
        now = sc.cluster.clock.now
        busy = max(
            sc.cluster.alive_worker_ids(),
            key=lambda w: max(sc.cluster.get_worker(w).slot_free_times),
        )
        tail = max(sc.cluster.get_worker(busy).slot_free_times)
        if tail <= now:  # ensure there is genuinely queued work
            sc.cluster.kernel.set_slot_free_time(
                sc.cluster.get_worker(busy), 0, now + 5.0)
            tail = now + 5.0
        report = manager.decommission(busy)
        assert report.drain_seconds == pytest.approx(tail - now)
        assert report.complete_at >= tail

    def test_refuses_last_worker(self):
        sc = StarkContext(num_workers=1)
        manager = make_manager(sc)
        with pytest.raises(RuntimeError):
            manager.decommission()

    def test_victim_is_cheapest(self, sc):
        cached_rdd(sc)
        manager = make_manager(sc)
        empty = [w for w in sc.cluster.alive_worker_ids()
                 if sc.block_manager_master.stores[w].used_bytes == 0]
        if empty:
            assert manager._pick_victim() in empty

    def test_budget_exhaustion_drops_to_lineage(self, sc):
        rdd = cached_rdd(sc)
        manager = make_manager(sc, migration_budget_bytes=0.0)
        victim = next(w for w in sc.cluster.alive_worker_ids()
                      if sc.block_manager_master.stores[w].used_bytes > 0)
        report = manager.decommission(victim)
        assert report.dropped_blocks > 0
        assert not report.lost_nothing
        assert report.migrated_bytes == 0.0
        # Lineage recovery still answers the query.
        assert rdd.count() == 400

    def test_locality_and_groups_forget_the_executor(self, sc):
        from repro.engine.partitioner import HashPartitioner

        partitioner = HashPartitioner(8)
        rdd = (sc.parallelize(make_pairs(400), 8)
               .locality_partition_by(partitioner, "ns").cache())
        rdd.count()
        sc.group_manager.report_rdd(rdd)
        manager = make_manager(sc)
        victim = sc.cluster.alive_worker_ids()[0]
        manager.decommission(victim)
        for pid in range(8):
            assert victim not in sc.locality_manager.preferred_executors(
                "ns", pid)


class TestEvaluateBounds:
    def test_scale_out_clamped_to_max(self, sc):
        manager = make_manager(sc, max_workers=len(sc.cluster) + 1)
        decision = manager.evaluate(
            pending_jobs=0,
            now=_overloaded(sc),
        )
        assert decision.delta == 1  # wanted more, clamped at max

    def test_scale_in_clamped_to_min(self, sc):
        manager = make_manager(
            sc, min_workers=len(sc.cluster),
            scale_in_cooldown_seconds=0.0)
        decision = manager.evaluate(now=sc.cluster.clock.now)
        assert decision.delta == 0

    def test_cooldown_blocks_consecutive_actions(self, sc):
        manager = make_manager(sc, cooldown_seconds=100.0,
                               max_workers=len(sc.cluster) + 8)
        first = manager.evaluate(now=_overloaded(sc))
        assert first.delta > 0
        second = manager.evaluate(now=_overloaded(sc))
        assert second.delta == 0
        assert second.reason == "cooldown"

    def test_scale_in_cooldown_longer(self, sc):
        manager = make_manager(sc, cooldown_seconds=10.0,
                               max_workers=len(sc.cluster) + 8)
        assert manager.scale_in_cooldown_seconds == 40.0
        assert manager.evaluate(now=_overloaded(sc)).delta > 0
        # Past the scale-out cooldown but inside the scale-in one: an
        # idle snapshot must hold instead of shrinking.
        clock = sc.cluster.clock
        clock.advance_to(clock.now + 20.0)
        decision = manager.evaluate(now=clock.now)
        assert decision.delta == 0
        assert decision.reason == "scale-in cooldown"

    def test_invalid_bounds(self, sc):
        with pytest.raises(ValueError):
            make_manager(sc, min_workers=0)
        with pytest.raises(ValueError):
            make_manager(sc, min_workers=5, max_workers=2)
        with pytest.raises(ValueError, match="initial cluster size"):
            make_manager(sc, max_workers=len(sc.cluster) - 1)

    def test_scaling_decision_event(self, sc):
        collector = obs.EventCollector()
        sc.event_bus.subscribe(collector)
        manager = make_manager(sc, max_workers=len(sc.cluster) + 8)
        manager.evaluate(now=_overloaded(sc))
        decisions = collector.of_type(obs.ScalingDecision)
        assert len(decisions) == 1
        assert decisions[0].action == "scale_out"
        assert decisions[0].policy == "backlog"


class TestValidateBounds:
    def test_unset_bounds_accept_anything(self):
        validate_bounds(None, None, 4)

    def test_valid_window_accepts(self):
        validate_bounds(2, 8, 4)

    def test_bounds_must_be_positive(self):
        with pytest.raises(ValueError):
            validate_bounds(0, None, 4)
        with pytest.raises(ValueError):
            validate_bounds(None, 0, 4)

    def test_min_above_max_rejected(self):
        with pytest.raises(ValueError):
            validate_bounds(5, 2, 3)

    def test_initial_outside_window_rejected(self):
        with pytest.raises(ValueError):
            validate_bounds(4, None, 2)
        with pytest.raises(ValueError):
            validate_bounds(None, 4, 6)

    def test_one_sided_bounds(self):
        validate_bounds(2, None, 100)
        validate_bounds(None, 8, 1)


def _overloaded(sc):
    """Queue several seconds of work on every slot; returns the
    evaluation time at which that backlog is visible."""
    now = sc.cluster.clock.now
    kernel = sc.cluster.kernel
    for worker in sc.cluster.alive_workers():
        for slot in range(worker.cores):
            kernel.set_slot_free_time(worker, slot, now + 10.0)
    return now


class TestWorkerSeconds:
    def test_static_cluster_integrates_linearly(self, sc):
        manager = make_manager(sc)
        sc.cluster.clock.advance_to(100.0)
        expected = 100.0 * len(sc.cluster.alive_workers())
        assert manager.worker_seconds() == pytest.approx(expected)

    def test_scale_out_increases_rate(self, sc):
        manager = make_manager(sc)
        n = len(sc.cluster.alive_workers())
        sc.cluster.clock.advance_to(10.0)
        manager.scale_out()
        sc.cluster.clock.advance_to(20.0)
        assert manager.worker_seconds() == pytest.approx(
            10.0 * n + 10.0 * (n + 1))

    def test_decommission_bills_until_release(self, sc):
        manager = make_manager(sc)
        n = len(sc.cluster.alive_workers())
        sc.cluster.clock.advance_to(10.0)
        report = manager.decommission()
        sc.cluster.clock.advance_to(30.0)
        tail = report.complete_at - 10.0
        assert manager.worker_seconds() == pytest.approx(
            10.0 * n + tail + 20.0 * (n - 1))

    def test_worker_hours(self, sc):
        manager = make_manager(sc)
        sc.cluster.clock.advance_to(3600.0)
        assert manager.worker_hours() == pytest.approx(
            float(len(sc.cluster.alive_workers())))


class TestSnapshotTiming:
    def test_backlog_measured_at_evaluation_time(self, sc):
        """The clock frontier runs ahead of arrivals in the synchronous
        driver; backlog must be visible at the arrival's timestamp."""
        manager = make_manager(sc)
        now = sc.cluster.clock.now
        kernel = sc.cluster.kernel
        for worker in sc.cluster.alive_workers():
            for slot in range(worker.cores):
                kernel.set_slot_free_time(worker, slot, now + 4.0)
        kernel.advance_to(now + 4.0)
        at_frontier = manager.snapshot()
        assert at_frontier.backlog_seconds == 0.0
        at_arrival = manager.snapshot(now=now)
        assert at_arrival.backlog_seconds == pytest.approx(
            4.0 * sc.cluster.total_cores())

    def test_recent_p95_from_noted_delays(self, sc):
        manager = make_manager(sc)
        for delay in [0.1] * 18 + [5.0] * 2:
            manager.note_delay(delay)
        # nearest-rank p95 over 20 samples lands on the 19th value
        assert manager.recent_p95_delay() == pytest.approx(5.0)
        manager.on_job_completed(10.0, 10.25)
        assert 0.25 in manager._recent_delays

    def test_factory_policies_accepted(self, sc):
        for name in ("backlog", "utilization", "latency"):
            manager = make_manager(sc, policy=make_scaling_policy(name))
            assert manager.evaluate(now=sc.cluster.clock.now) is not None
