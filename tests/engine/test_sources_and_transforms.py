"""Tests for source RDD cost charging and transform partitioner rules."""


from repro import StarkContext
from repro.cluster.cost_model import SimStr
from repro.engine.partitioner import HashPartitioner
from repro.engine.transforms import MapPartitionsRDD

from ..conftest import make_pairs


def source_read_time(sc):
    return sum(t.source_read_time for j in sc.metrics.jobs for t in j.tasks)


class TestSourceCosts:
    def make_generator(self, nbytes=1e6):
        def generate(pid):
            return [(pid, SimStr("x", sim_size=int(nbytes)))]

        return generate

    def test_disk_source_charges_disk_rate(self):
        sc = StarkContext(num_workers=1, cores_per_worker=1)
        rdd = sc.generated(self.make_generator(120e6), 1, read_cost="disk")
        rdd.count()
        # 120 MB at ~120 MB/s disk + serde: around a second.
        assert 0.5 < source_read_time(sc) < 3.0

    def test_network_source_slower_than_disk(self):
        times = {}
        for mode in ("disk", "network"):
            sc = StarkContext(num_workers=1, cores_per_worker=1)
            sc.generated(self.make_generator(100e6), 1,
                         read_cost=mode).count()
            times[mode] = source_read_time(sc)
        assert times["network"] > times["disk"]

    def test_none_source_nearly_free(self):
        sc = StarkContext(num_workers=1, cores_per_worker=1)
        sc.generated(self.make_generator(100e6), 1, read_cost="none").count()
        assert source_read_time(sc) < 0.1

    def test_parallelize_charges_driver_ship(self):
        sc = StarkContext(num_workers=1, cores_per_worker=1)
        data = [(0, SimStr("x", sim_size=1_000_000))]
        sc.parallelize(data, 1).count()
        assert source_read_time(sc) > 0

    def test_generator_called_per_partition(self):
        sc = StarkContext(num_workers=2, cores_per_worker=2)
        calls = []

        def generate(pid):
            calls.append(pid)
            return [(pid, pid)]

        rdd = sc.generated(generate, 4, read_cost="none")
        rdd.count()
        assert sorted(calls) == [0, 1, 2, 3]


class TestPartitionerPreservation:
    def setup_method(self):
        self.sc = StarkContext(num_workers=2, cores_per_worker=2)
        self.part = HashPartitioner(4)
        self.base = self.sc.parallelize(make_pairs(40), 4).partition_by(
            self.part
        )

    def test_plain_map_drops_partitioner(self):
        assert self.base.map(lambda kv: kv).partitioner is None

    def test_map_with_flag_keeps_partitioner(self):
        mapped = self.base.map(lambda kv: kv, preserves_partitioning=True)
        assert mapped.partitioner == self.part

    def test_map_values_keeps_partitioner(self):
        assert self.base.map_values(lambda v: v * 2).partitioner == self.part

    def test_filter_keeps_partitioner(self):
        assert self.base.filter(lambda kv: True).partitioner == self.part

    def test_flat_map_drops_partitioner(self):
        assert self.base.flat_map(lambda kv: [kv]).partitioner is None

    def test_map_partitions_keeps_by_default(self):
        rdd = MapPartitionsRDD(self.base, lambda p: p)
        assert rdd.partitioner == self.part

    def test_cogroup_after_map_values_stays_narrow(self):
        other = self.sc.parallelize(make_pairs(40), 4).partition_by(self.part)
        derived = self.base.map_values(lambda v: v + 1)
        assert not derived.cogroup(other).shuffle_dependencies()

    def test_cogroup_after_plain_map_shuffles(self):
        other = self.sc.parallelize(make_pairs(40), 4).partition_by(self.part)
        derived = self.base.map(lambda kv: kv)  # partitioner dropped
        cg = derived.cogroup(other, partitioner=self.part)
        assert len(cg.shuffle_dependencies()) == 1
