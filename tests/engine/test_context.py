"""Tests for StarkContext wiring and configuration."""

import pytest

from repro import StarkContext
from repro.cluster.cluster import Cluster
from repro.cluster.cost_model import CostModel, SimStr
from repro.engine.context import STORAGE_MEMORY_FRACTION

from ..conftest import make_pairs


class TestConstruction:
    def test_default_components_wired(self):
        sc = StarkContext(num_workers=3)
        assert len(sc.cluster) == 3
        assert sc.locality_manager is not None
        assert sc.group_manager is not None
        assert sc.dag_scheduler is not None
        assert sc.task_scheduler is not None

    def test_custom_cluster(self):
        cluster = Cluster(num_workers=2, cores_per_worker=8)
        sc = StarkContext(cluster=cluster)
        assert sc.cluster is cluster
        assert sc.cluster.total_cores() == 16

    def test_cost_model_with_cluster_rejected(self):
        cluster = Cluster(num_workers=2)
        with pytest.raises(ValueError, match="via the Cluster"):
            StarkContext(cluster=cluster, cost_model=CostModel())

    def test_storage_fraction_bounds_cache(self):
        sc = StarkContext(num_workers=1, memory_per_worker=1e9)
        assert STORAGE_MEMORY_FRACTION == 0.6
        assert sc.block_manager_master.stores[0].capacity_bytes == 6e8

    def test_rdd_ids_unique(self):
        sc = StarkContext(num_workers=1)
        a = sc.parallelize([1], 1)
        b = sc.parallelize([1], 1)
        assert a.rdd_id != b.rdd_id
        assert sc.get_rdd(a.rdd_id) is a

    def test_now_tracks_clock(self):
        sc = StarkContext(num_workers=1)
        sc.cluster.clock.advance_to(7.0)
        assert sc.now == 7.0


class TestRDDCreation:
    def test_parallelize_with_partitioner_routes(self):
        from repro.engine.partitioner import HashPartitioner

        part = HashPartitioner(4)
        sc = StarkContext(num_workers=2)
        rdd = sc.parallelize(make_pairs(40), 4, partitioner=part)
        assert rdd.partitioner == part
        for pid, records in enumerate(rdd.collect_partitions()):
            assert all(part.get_partition(k) == pid for k, _ in records)

    def test_parallelize_partitioner_count_mismatch(self):
        from repro.engine.partitioner import HashPartitioner

        sc = StarkContext(num_workers=2)
        with pytest.raises(ValueError):
            sc.parallelize(make_pairs(10), 4, partitioner=HashPartitioner(2))

    def test_generated_read_cost_validation(self):
        sc = StarkContext(num_workers=2)
        with pytest.raises(ValueError):
            sc.generated(lambda pid: [], 2, read_cost="tape")

    def test_text_file_deterministic_lineage(self):
        sc = StarkContext(num_workers=2)
        rdd = sc.text_file(lambda pid: [f"line-{pid}-{i}" for i in range(5)], 3)
        assert rdd.count() == 15
        assert sorted(rdd.collect()) == sorted(rdd.collect())


class TestDiagnostics:
    def test_cached_bytes(self):
        sc = StarkContext(num_workers=2)
        rdd = sc.parallelize(make_pairs(100), 2).cache()
        assert sc.cached_bytes() == 0.0
        rdd.count()
        assert sc.cached_bytes() > 0


class TestSimStr:
    def test_behaves_like_str(self):
        s = SimStr("hello world", sim_size=5000)
        assert "world" in s
        assert s.split() == ["hello", "world"]
        assert len(s) == 11

    def test_sim_size_accounted(self):
        from repro.cluster.cost_model import RecordSizer

        sizer = RecordSizer()
        plain = sizer.size_of("hello world")
        simmed = sizer.size_of(SimStr("hello world", sim_size=5000))
        assert simmed == sizer.base + 5000
        assert plain < simmed

    def test_defaults_to_real_length(self):
        s = SimStr("abc")
        assert s.sim_size == 3

    def test_in_memory_overhead(self):
        from repro.cluster.cost_model import RecordSizer

        sizer = RecordSizer(memory_overhead=2.5)
        records = [SimStr("x", sim_size=100)]
        assert sizer.in_memory_size(records) == \
            2.5 * sizer.size_of_partition(records)

