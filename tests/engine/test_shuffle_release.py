"""Shuffle release and reachability locks.

A shuffle's map outputs live exactly as long as its ``ShuffleDependency``
is reachable.  Release is driven by reference counting, so every test
here runs with the cyclic garbage collector disabled: an output (or an
RDD) that only a collection pass would free counts as leaked.

* a SQL session's tracker holds no output of a query once its
  ``collect()`` returned and the DataFrame was dropped, and the query's
  final RDD is dead;
* a DataFrame (or RDD) that is kept skips its map stages on a second
  collect, exactly as before;
* a cached RDD the caller dropped keeps its blocks, its shuffle and its
  recompute-cost walk until it is unpersisted;
* a registered dataset survives its creator dropping the RDD;
* the tracker's per-shuffle operations visit only that shuffle's
  entries.
"""

import gc
import weakref

import pytest

from repro import StarkContext
from repro.engine.lineage import shuffle_boundaries
from repro.engine.partitioner import HashPartitioner
from repro.engine.shuffle import MapOutputTracker
from repro.obs import EventCollector, StageCompleted
from repro.service.registry import DatasetRegistry
from repro.sql import SQLSession

from ..conftest import make_pairs

ORDERS = [("o_key", "int"), ("o_cust", "int"), ("o_status", "str")]
ITEMS = [("l_key", "int"), ("l_qty", "int"), ("l_price", "float")]


@pytest.fixture(autouse=True)
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def sql_session():
    sc = StarkContext(num_workers=3, cores_per_worker=2)
    session = SQLSession(sc)
    session.from_rows("orders", ORDERS,
                      [(k, k % 7, "FOP"[k % 3]) for k in range(120)],
                      num_partitions=4)
    session.from_rows("items", ITEMS,
                      [(k % 120, k % 50, float(k % 13)) for k in range(480)],
                      num_partitions=4)
    return sc, session


def queries(n):
    templates = (
        "SELECT o_status, SUM(l_price) AS revenue FROM items JOIN orders "
        "ON l_key = o_key WHERE l_qty < {q} GROUP BY o_status",
        "SELECT o_cust, COUNT(*) AS n FROM orders WHERE o_key > {q} "
        "GROUP BY o_cust",
        "SELECT l_key, l_price FROM items WHERE l_qty > {q} "
        "ORDER BY l_price DESC, l_key ASC LIMIT 5",
    )
    return [templates[i % len(templates)].format(q=i % 40 + 5)
            for i in range(n)]


def disk_shuffles(sc):
    return {sid for w in sc.cluster.workers.values() for sid in w.shuffle_disk}


def shuffle_ids(rdd):
    return [dep.shuffle_id for dep in shuffle_boundaries(rdd)]


class TestSqlSession:
    def test_fifty_queries_leave_no_map_output(self):
        sc, session = sql_session()
        tracker = sc.map_output_tracker
        shuffled = 0
        for text in queries(50):
            df = session.sql(text)
            final = weakref.ref(df.to_rdd())
            ids = shuffle_ids(df.to_rdd())
            assert df.collect() is not None
            # Still reachable: every map output of the query is held.
            assert all(tracker.is_shuffle_complete(s) for s in ids)
            assert set(ids) <= disk_shuffles(sc)
            shuffled += len(ids)
            del df
            assert final() is None
            assert tracker.num_outputs() == 0
            assert not any(tracker.has_map_output(s, 0) for s in ids)
            assert not disk_shuffles(sc)
        assert shuffled > 50  # the queries did exchange data

    def test_kept_dataframe_skips_its_map_stages(self):
        sc, session = sql_session()
        df = session.sql(queries(1)[0])
        first = df.collect()
        job = sc.metrics.last_job()
        assert (job.num_stages, job.skipped_stages) == (4, 0)
        assert df.collect() == first
        job = sc.metrics.last_job()
        assert (job.num_stages, job.skipped_stages) == (4, 3)


class TestRddLifetime:
    def test_dropped_pipeline_releases_its_shuffles(self, sc):
        rdd = (sc.parallelize(make_pairs(60), 4)
               .reduce_by_key(lambda a, b: a + b, HashPartitioner(3))
               .map(lambda kv: (kv[1] % 5, kv[0]))
               .group_by_key(HashPartitioner(2)))
        ids = shuffle_ids(rdd)
        assert len(ids) == 2
        final = weakref.ref(rdd)
        rdd.count()
        assert sc.map_output_tracker.num_outputs() == 4 + 3
        del rdd
        assert final() is None
        assert sc.map_output_tracker.num_outputs() == 0
        assert not disk_shuffles(sc)

    def test_kept_rdd_skips_with_stable_stage_ids(self, sc):
        collector = EventCollector()
        sc.event_bus.subscribe(collector)
        rdd = sc.parallelize(make_pairs(40), 4).reduce_by_key(
            lambda a, b: a + b, HashPartitioner(2))
        rdd.count()
        rdd.count()
        first, second = sc.metrics.jobs
        assert (first.skipped_stages, second.skipped_stages) == (0, 1)
        ran = [e.stage_id for e in collector.of_type(StageCompleted)
               if not e.skipped]
        skipped = [e.stage_id for e in collector.of_type(StageCompleted)
                   if e.skipped]
        # The second job skips the very map stage the first job ran.
        assert ran[0] == skipped[0] == rdd.dependencies[0].map_stage.stage_id
        assert ran == [0, 1, 2]

    def test_dropped_cached_rdd_keeps_blocks_until_unpersist(self, sc):
        rdd = (sc.parallelize(make_pairs(80), 4)
               .reduce_by_key(lambda a, b: a + b, HashPartitioner(4))
               .map_values(lambda v: v * 2)
               .cache())
        rdd_id, ids = rdd.rdd_id, shuffle_ids(rdd)
        rdd.count()
        manager = sc.cache_manager
        cost = manager.estimate_recompute_cost(rdd_id)
        assert cost > 0
        held = weakref.ref(rdd)
        del rdd
        assert held() is not None
        bmm = sc.block_manager_master
        assert bmm.has_cached_partitions(rdd_id)
        # Its lineage (and so its shuffle) is still needed for recovery.
        assert all(sc.map_output_tracker.is_shuffle_complete(s) for s in ids)
        manager.invalidate_cost(rdd_id)  # force a fresh walk by id
        assert manager.estimate_recompute_cost(rdd_id) == cost
        held().unpersist()
        assert held() is None
        assert not bmm.has_cached_partitions(rdd_id)
        assert sc.map_output_tracker.num_outputs() == 0

    def test_registered_dataset_survives_its_creator(self, sc):
        registry = DatasetRegistry(sc)
        rdd = sc.parallelize(make_pairs(30), 3).map_values(lambda v: v + 1)
        expected = sorted(rdd.collect())
        handle = registry.register("alice", "events", rdd)
        held = weakref.ref(rdd)
        handle.release()
        del rdd, handle
        view = registry.lookup("bob", "events")
        assert sorted(view.rdd.collect()) == expected
        assert registry.drop("alice", "events") is False  # bob's handle
        assert held() is not None
        view.release()
        del view
        assert held() is None


class CountingMaps(dict):
    """A shuffle's ``map_pid -> buckets`` table that counts visits."""

    visits = None

    def _count(self):
        CountingMaps.visits[self.shuffle_id] = (
            CountingMaps.visits.get(self.shuffle_id, 0) + 1)

    def items(self):
        self._count()
        return super().items()

    def values(self):
        self._count()
        return super().values()

    def __iter__(self):
        self._count()
        return super().__iter__()

    def __contains__(self, key):
        self._count()
        return super().__contains__(key)


class TestTrackerIndex:
    SHUFFLES, MAPS = 40, 4

    @pytest.fixture
    def tracker(self):
        tracker = MapOutputTracker()
        for sid in range(self.SHUFFLES):
            tracker.register_shuffle(sid, self.MAPS)
            for m in range(self.MAPS):
                tracker.register_map_output(
                    sid, m, worker_id=m % 2,
                    buckets={0: (8.0, [("k", sid)])})
        for sid, maps in tracker._outputs.items():
            counting = CountingMaps(maps)
            counting.shuffle_id = sid
            tracker._outputs[sid] = counting
        CountingMaps.visits = {}
        return tracker

    def test_invalidating_one_shuffle_visits_only_it(self, tracker):
        assert tracker.remove_outputs_for_shuffle_on_worker(7, 1) == [1, 3]
        assert not tracker.is_shuffle_complete(7)
        assert tracker.missing_map_partitions(7) == [1, 3]
        assert set(CountingMaps.visits) == {7}

    def test_releasing_one_shuffle_visits_nothing(self, tracker):
        tracker.unregister_shuffle(7)
        assert CountingMaps.visits == {}
        assert tracker.num_outputs() == (self.SHUFFLES - 1) * self.MAPS
        assert not tracker.has_map_output(7, 0)

    def test_worker_loss_visits_every_shuffle(self, tracker):
        lost = tracker.remove_outputs_on_worker(0)
        assert len(lost) == self.SHUFFLES * self.MAPS // 2
        assert set(CountingMaps.visits) == set(range(self.SHUFFLES))
