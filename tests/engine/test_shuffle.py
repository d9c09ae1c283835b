"""Tests for the map-output tracker and the reduce-side fetch."""

import pytest

from repro import StarkContext
from repro.cluster import Cluster
from repro.engine.partitioner import HashPartitioner
from repro.engine.shuffle import MapOutputTracker
from repro.obs import EventCollector
from repro.obs.events import ShuffleFetch, TaskEnd


def buckets(*sizes_and_records):
    return {
        rpid: (float(size), records)
        for rpid, size, records in sizes_and_records
    }


class TestMapOutputTracker:
    def test_register_and_fetch(self):
        tracker = MapOutputTracker()
        tracker.register_shuffle(0, num_maps=2)
        tracker.register_map_output(0, 0, worker_id=1,
                                    buckets=buckets((0, 10, ["a"])))
        tracker.register_map_output(0, 1, worker_id=2,
                                    buckets=buckets((0, 20, ["b"])))
        outputs = tracker.outputs_for_reduce(0, 0)
        assert [o.worker_id for o in outputs] == [1, 2]
        assert [o.records for o in outputs] == [["a"], ["b"]]

    def test_reduce_with_no_bucket_is_empty(self):
        tracker = MapOutputTracker()
        tracker.register_shuffle(0, num_maps=1)
        tracker.register_map_output(0, 0, 1, buckets((0, 10, ["a"])))
        assert tracker.outputs_for_reduce(0, 1) == []

    def test_incomplete_shuffle_raises_on_fetch(self):
        tracker = MapOutputTracker()
        tracker.register_shuffle(0, num_maps=2)
        tracker.register_map_output(0, 0, 1, buckets((0, 10, ["a"])))
        with pytest.raises(RuntimeError, match="map output missing"):
            tracker.outputs_for_reduce(0, 0)

    def test_is_shuffle_complete(self):
        tracker = MapOutputTracker()
        tracker.register_shuffle(0, num_maps=2)
        assert not tracker.is_shuffle_complete(0)
        tracker.register_map_output(0, 0, 1, buckets((0, 1, [])))
        assert not tracker.is_shuffle_complete(0)
        tracker.register_map_output(0, 1, 1, buckets((0, 1, [])))
        assert tracker.is_shuffle_complete(0)

    def test_unknown_shuffle_not_complete(self):
        assert not MapOutputTracker().is_shuffle_complete(42)

    def test_missing_map_partitions(self):
        tracker = MapOutputTracker()
        tracker.register_shuffle(0, num_maps=3)
        tracker.register_map_output(0, 1, 1, buckets((0, 1, [])))
        assert tracker.missing_map_partitions(0) == [0, 2]

    def test_reregister_same_count_ok(self):
        tracker = MapOutputTracker()
        tracker.register_shuffle(0, num_maps=2)
        tracker.register_shuffle(0, num_maps=2)

    def test_reregister_different_count_rejected(self):
        tracker = MapOutputTracker()
        tracker.register_shuffle(0, num_maps=2)
        with pytest.raises(ValueError):
            tracker.register_shuffle(0, num_maps=3)

    def test_register_output_for_unknown_shuffle_rejected(self):
        tracker = MapOutputTracker()
        with pytest.raises(KeyError):
            tracker.register_map_output(9, 0, 1, buckets((0, 1, [])))

    def test_reduce_input_bytes(self):
        tracker = MapOutputTracker()
        tracker.register_shuffle(0, num_maps=2)
        tracker.register_map_output(0, 0, 1, buckets((0, 10, []), (1, 5, [])))
        tracker.register_map_output(0, 1, 1, buckets((0, 20, [])))
        assert tracker.reduce_input_bytes(0, 0) == 30
        assert tracker.reduce_input_bytes(0, 1) == 5

    def test_remove_outputs_on_worker(self):
        tracker = MapOutputTracker()
        tracker.register_shuffle(0, num_maps=2)
        tracker.register_map_output(0, 0, 1, buckets((0, 1, [])))
        tracker.register_map_output(0, 1, 2, buckets((0, 1, [])))
        doomed = tracker.remove_outputs_on_worker(1)
        assert doomed == [(0, 0)]
        assert not tracker.is_shuffle_complete(0)
        assert tracker.missing_map_partitions(0) == [0]

    def test_unregister_shuffle(self):
        tracker = MapOutputTracker()
        tracker.register_shuffle(0, num_maps=1)
        tracker.register_map_output(0, 0, 1, buckets((0, 7, [])))
        tracker.unregister_shuffle(0)
        assert not tracker.is_shuffle_complete(0)
        assert tracker.total_shuffle_bytes() == 0

    def test_total_shuffle_bytes(self):
        tracker = MapOutputTracker()
        tracker.register_shuffle(0, num_maps=1)
        tracker.register_shuffle(1, num_maps=1)
        tracker.register_map_output(0, 0, 1, buckets((0, 7, [])))
        tracker.register_map_output(1, 0, 1, buckets((0, 3, [])))
        assert tracker.total_shuffle_bytes() == 10


class TestFetchShuffle:
    """The one reduce-side read path: a bucket on the reducer's own
    worker is read back from local disk, any other bucket pays the remote
    disk read plus the network, and the records arrive in map order."""

    def run(self, seed=3):
        cluster = Cluster(num_workers=2, cores_per_worker=2,
                          memory_per_worker=1e9, seed=seed)
        sc = StarkContext(cluster=cluster)
        collector = EventCollector()
        sc.event_bus.subscribe(collector)
        data = [(i % 8, i) for i in range(400)]
        pairs = sc.parallelize(data, num_partitions=4)
        grouped = pairs.group_by_key(partitioner=HashPartitioner(4))
        result = dict(grouped.collect())
        return sc, collector, data, result

    def test_values_arrive_in_map_order(self):
        _, _, data, result = self.run()
        for key, values in result.items():
            assert list(values) == [v for k, v in data if k == key]

    def test_charges_match_the_fetch_events(self):
        sc, collector, _, _ = self.run()
        model = sc.cost_model
        fetches = {e.reduce_id: e for e in collector.of_type(ShuffleFetch)}
        reduce_stage = max(e.stage_id for e in collector.of_type(TaskEnd))
        ends = {e.partition: e for e in collector.of_type(TaskEnd)
                if e.stage_id == reduce_stage}
        assert sorted(fetches) == sorted(ends) == [0, 1, 2, 3]
        for pid, fetch in fetches.items():
            end = ends[pid]
            assert end.worker_id == fetch.worker_id
            assert end.shuffle_fetch_local_time == fetch.local_seconds
            assert end.shuffle_fetch_remote_time == fetch.remote_seconds
            assert fetch.local_seconds == pytest.approx(
                model.disk_read_cost(fetch.local_bytes))
            assert fetch.remote_seconds > model.disk_read_cost(
                fetch.remote_bytes)
        # Two workers: every reducer finds part of its input at home.
        assert all(f.local_bytes > 0 and f.remote_bytes > 0
                   for f in fetches.values())
