"""Tests for namespace registration, placement, and replica management."""

import pytest

from repro.core.locality_manager import NamespaceError
from repro.engine.partitioner import HashPartitioner, StaticRangePartitioner

from ..conftest import make_pairs


class TestNamespaceRegistration:
    def test_register_creates_placement(self, sc):
        part = HashPartitioner(8)
        ns = sc.locality_manager.register("logs", part)
        assert len(ns.placement) == 8
        alive = set(sc.cluster.alive_worker_ids())
        for executors in ns.placement.values():
            assert executors
            assert set(executors) <= alive

    def test_round_robin_balances_placement(self, sc):
        part = HashPartitioner(8)
        ns = sc.locality_manager.register("logs", part)
        counts = {}
        for executors in ns.placement.values():
            counts[executors[0]] = counts.get(executors[0], 0) + 1
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_reregister_same_partitioner_ok(self, sc):
        part = HashPartitioner(4)
        first = sc.locality_manager.register("ns", part)
        second = sc.locality_manager.register("ns", HashPartitioner(4))
        assert first is second

    def test_conflicting_partitioner_rejected(self, sc):
        sc.locality_manager.register("ns", HashPartitioner(4))
        with pytest.raises(NamespaceError, match="incompatible"):
            sc.locality_manager.register("ns", HashPartitioner(8))
        with pytest.raises(NamespaceError):
            sc.locality_manager.register("ns", StaticRangePartitioner([5]))

    def test_empty_name_rejected(self, sc):
        with pytest.raises(NamespaceError):
            sc.locality_manager.register("", HashPartitioner(2))

    def test_rdd_with_wrong_partitioner_rejected(self, sc):
        part = HashPartitioner(4)
        sc.locality_manager.register("ns", part)
        rdd = sc.parallelize(make_pairs(10), 2)
        with pytest.raises(NamespaceError, match="does not match"):
            sc.locality_manager.register_rdd("ns", rdd)

    def test_unknown_namespace_rejected(self, sc):
        with pytest.raises(NamespaceError, match="unknown"):
            sc.locality_manager.get_namespace("nope")

    def test_locality_partition_by_registers(self, sc):
        part = HashPartitioner(4)
        rdd = sc.parallelize(make_pairs(20), 4).locality_partition_by(part, "ns")
        assert sc.locality_manager.namespace_of_rdd(rdd.rdd_id) == "ns"
        assert rdd.rdd_id in sc.locality_manager.rdds_in_namespace("ns")

    def test_mismatched_second_rdd_raises(self, sc):
        sc.parallelize(make_pairs(20), 4).locality_partition_by(
            HashPartitioner(4), "ns"
        )
        with pytest.raises(NamespaceError):
            sc.parallelize(make_pairs(20), 8).locality_partition_by(
                HashPartitioner(8), "ns"
            )


class TestPreferredExecutors:
    def test_preferred_executors_stable(self, sc):
        part = HashPartitioner(4)
        sc.locality_manager.register("ns", part)
        first = sc.locality_manager.preferred_executors("ns", 2)
        second = sc.locality_manager.preferred_executors("ns", 2)
        assert first == second
        assert first

    def test_dead_workers_filtered(self, sc):
        part = HashPartitioner(4)
        ns = sc.locality_manager.register("ns", part)
        pid = 0
        primary = ns.placement[pid][0]
        sc.cluster.kill_worker(primary)
        assert primary not in sc.locality_manager.preferred_executors("ns", pid)

    def test_disabled_locality_returns_nothing(self, spark_sc):
        part = HashPartitioner(4)
        spark_sc.locality_manager.register("ns", part)
        assert spark_sc.locality_manager.preferred_executors("ns", 0) == []


class TestReplicas:
    def test_add_replica(self, sc):
        part = HashPartitioner(4)
        sc.locality_manager.register("ns", part)
        before = sc.locality_manager.replica_count("ns", 1)
        sc.locality_manager.add_replica("ns", 1, worker_id=3)
        after = sc.locality_manager.replica_count("ns", 1)
        assert after >= before
        assert 3 in sc.locality_manager.preferred_executors("ns", 1)

    def test_add_replica_idempotent(self, sc):
        sc.locality_manager.register("ns", HashPartitioner(4))
        sc.locality_manager.add_replica("ns", 0, 2)
        count = sc.locality_manager.replica_count("ns", 0)
        sc.locality_manager.add_replica("ns", 0, 2)
        assert sc.locality_manager.replica_count("ns", 0) == count

    def test_remove_replica_keeps_last(self, sc):
        ns = sc.locality_manager.register("ns", HashPartitioner(4))
        only = ns.placement[0][0]
        sc.locality_manager.remove_replica("ns", 0, only)
        assert ns.placement[0] == [only]

    def test_remove_extra_replica(self, sc):
        ns = sc.locality_manager.register("ns", HashPartitioner(4))
        sc.locality_manager.add_replica("ns", 0, 3)
        sc.locality_manager.remove_replica("ns", 0, 3)
        assert 3 not in ns.placement[0] or len(ns.placement[0]) == 1


class TestContentionAccounting:
    def test_counts_unique_collection_partitions(self, sc):
        part = HashPartitioner(4)
        rdds = []
        for _ in range(3):
            r = sc.parallelize(make_pairs(40), 4).locality_partition_by(
                part, "ns"
            ).cache()
            r.count()
            rdds.append(r)
        manager = sc.locality_manager
        total = sum(
            manager.unique_collection_partitions_cached(w)
            for w in sc.cluster.worker_ids
        )
        # 4 collection partitions exist; replicas may add a few more.
        assert total >= 4

    def test_three_rdds_one_partition_counts_once(self, sc):
        """Blocks of different RDDs sharing (ns, pid) count as ONE unique
        collection partition — the core of Algorithm 1's sort key."""
        part = HashPartitioner(2)
        rdds = [
            sc.parallelize(make_pairs(10), 2).locality_partition_by(part, "ns")
            for _ in range(3)
        ]
        from repro.engine.block_manager import Block

        bmm = sc.block_manager_master
        for rdd in rdds:
            bmm.put(0, Block((rdd.rdd_id, 1), ["x"], 10.0))
        assert sc.locality_manager.unique_collection_partitions_cached(0) == 1

    def test_non_namespace_blocks_ignored(self, sc):
        from repro.engine.block_manager import Block

        plain = sc.parallelize(make_pairs(10), 2)
        sc.block_manager_master.put(0, Block((plain.rdd_id, 0), ["x"], 10.0))
        assert sc.locality_manager.unique_collection_partitions_cached(0) == 0


class TestRemoveExecutor:
    def test_locality_and_groups_forget_the_executor(self, sc):
        partitioner = HashPartitioner(8)
        rdd = (sc.parallelize(make_pairs(400), 8)
               .locality_partition_by(partitioner, "ns").cache())
        rdd.count()
        sc.group_manager.report_rdd(rdd)
        victim = sc.cluster.alive_worker_ids()[0]
        assert any(victim in sc.locality_manager.preferred_executors("ns", pid)
                   for pid in range(8))
        sc.locality_manager.remove_executor(victim)
        sc.group_manager.remove_executor(victim)
        for pid in range(8):
            # Purged, and re-homed: no partition is left without a home.
            executors = sc.locality_manager.preferred_executors("ns", pid)
            assert executors
            assert victim not in executors
