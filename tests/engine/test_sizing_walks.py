"""Every materialised partition is deep-walked by the sizer exactly once.

``evaluate`` takes serialized and heap bytes from one walk, and
``EvalContext.serialized_size`` remembers the partition walked last, so a
source partition charged by ``charge_source_read`` is not walked again by
the ``evaluate`` that receives that very list; cache hits walk nothing.
Shuffle buckets are new lists and are walked once when written.
"""

import dataclasses
from contextlib import contextmanager

import pytest

from repro import StarkContext
from repro.cluster import cost_model
from repro.cluster.cluster import Cluster
from repro.cluster.cost_model import RecordSizer, SimStr
from repro.engine.compute import EvalContext
from repro.engine.metrics import TaskMetrics
from repro.engine.partitioner import HashPartitioner

PARTITIONS, PER_PARTITION, KEYS = 4, 50, 40
TOTAL = PARTITIONS * PER_PARTITION


def new_context() -> StarkContext:
    return StarkContext(num_workers=4, cores_per_worker=2,
                        memory_per_worker=1e9)


def rows_of(tag: str, pid: int) -> list:
    """Pairs whose keys collide across partitions and sources."""
    return [(f"k{(pid * 7 + i) % KEYS}", SimStr(f"{tag}{i}", sim_size=900))
            for i in range(PER_PARTITION)]


def source(sc, tag):
    return sc.generated(lambda pid: rows_of(tag, pid), PARTITIONS,
                        read_cost="network", name=tag)


@contextmanager
def counting_walker():
    """Counts the records handed to the deep walker (top-level calls;
    the walker recurses through its module-level name)."""
    real = cost_model._payload
    state = {"records": 0, "depth": 0}

    def counting(value):
        if state["depth"] == 0:
            state["records"] += 1
        state["depth"] += 1
        try:
            return real(value)
        finally:
            state["depth"] -= 1

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cost_model, "_payload", counting)
        yield state


def cogroup_job(sc):
    part = HashPartitioner(PARTITIONS)
    left = source(sc, "l").locality_partition_by(part, "ns").cache()
    right = source(sc, "r").locality_partition_by(part, "ns").cache()
    merged = left.cogroup(right)
    return merged, sorted(merged.collect())


def observed(sc):
    """Everything sizing feeds: task timings and per-RDD sizes."""
    tasks = [dataclasses.astuple(t) for job in sc.metrics.jobs
             for t in job.tasks]
    sizes = {rdd_id: stats.size_bytes
             for rdd_id, stats in sorted(sc._rdd_stats.items())}
    return tasks, sizes


class TestWalkOnce:
    def test_source_map_cache_two_actions(self):
        sc = new_context()
        mapped = source(sc, "a").map(lambda kv: (kv[0], (kv[1], 1.5))).cache()
        with counting_walker() as walked:
            assert sc.run_job(mapped, len) == [PER_PARTITION] * PARTITIONS
            # source partition + mapped partition, once each per task
            assert walked["records"] == 2 * TOTAL

            assert sc.run_job(mapped, len) == [PER_PARTITION] * PARTITIONS
            tasks = sc.metrics.last_job().tasks
            assert sum(t.cache_hits for t in tasks) == PARTITIONS
            assert walked["records"] == 2 * TOTAL  # hits walk nothing

        # The sizes that one walk produced are the per-record ones.
        sizer = RecordSizer()
        records = [(k, (v, 1.5)) for pid in range(PARTITIONS)
                   for k, v in rows_of("a", pid)]
        assert sc.rdd_stats(mapped.rdd_id).size_bytes == \
            sum(sizer.size_of(r) for r in records)
        blocks = [store.peek((mapped.rdd_id, pid))
                  for store in sc.block_manager_master.stores.values()
                  for pid in range(PARTITIONS)]
        assert sum(b.size_bytes for b in blocks if b is not None) == \
            sizer.in_memory_size(records)

    def test_locality_partition_and_cogroup(self):
        sc = new_context()
        with counting_walker() as walked:
            merged, rows = cogroup_job(sc)
            assert len(rows) == KEYS
            # Per side: source partitions, their shuffle buckets, and the
            # shuffled partitions the reduce tasks build; then one
            # cogrouped record per key.
            assert walked["records"] == 2 * 3 * TOTAL + KEYS

            assert sorted(merged.collect()) == rows
            tasks = sc.metrics.last_job().tasks
            assert sum(t.cache_hits for t in tasks) == 2 * PARTITIONS
            assert sum(t.cache_misses for t in tasks) == 0
            # Both inputs hit the cache; only the uncached cogroup output
            # is materialised, and walked, again.
            assert walked["records"] == 2 * 3 * TOTAL + 2 * KEYS

    def test_checkpoint_write_and_read_reuse_the_walk(self):
        def checkpoint_then_read(sc, walked):
            mapped = source(sc, "a").map(lambda kv: (kv[0], (kv[1], 1.5)))
            # Writing: source + mapped partition; the store gets the size
            # ``evaluate`` just walked for.
            written = sc.checkpoint_rdd(mapped)
            assert written == sc.rdd_stats(mapped.rdd_id).size_bytes
            after_write = walked["records"]
            # Reading: heap bytes follow from the stored size, and the
            # child's partition is the only thing walked.
            assert sc.run_job(mapped.map(lambda kv: kv[0]), len) == \
                [PER_PARTITION] * PARTITIONS
            tasks = sc.metrics.last_job().tasks
            assert all(t.checkpoint_read_time > 0 for t in tasks)
            assert all(t.source_read_time == 0 for t in tasks)
            return after_write, walked["records"]

        sc = new_context()
        with counting_walker() as walked:
            assert checkpoint_then_read(sc, walked) == (2 * TOTAL, 3 * TOTAL)

        # Same timings as heap bytes re-derived record by record.
        class RewalkingSizer(RecordSizer):
            def in_memory_size(self, records, serialized=None):
                return super().in_memory_size(records)

        rewalking = StarkContext(cluster=Cluster(
            num_workers=4, cores_per_worker=2, memory_per_worker=1e9,
            sizer=RewalkingSizer()))
        with counting_walker() as walked:
            assert checkpoint_then_read(rewalking, walked) == \
                (4 * TOTAL, 7 * TOTAL)
        assert observed(rewalking) == observed(sc)

    def test_counted_run_equals_stock_run(self):
        stock, counted = new_context(), new_context()
        rows = cogroup_job(stock)[1]
        with counting_walker():
            assert cogroup_job(counted)[1] == rows
        assert observed(counted) == observed(stock)


class TestLastSizedMemo:
    def test_only_the_very_same_list_is_reused(self):
        ctx = EvalContext(new_context(), 0, TaskMetrics())
        sizer = RecordSizer()
        small = [("k", SimStr("v", sim_size=10))]
        with counting_walker() as walked:
            for records in (small, small * 3, small, list(small)):
                before = walked["records"]
                size = ctx.serialized_size(records)
                assert walked["records"] - before == len(records)
                assert size == sizer.size_of_partition(records)
            before = walked["records"]
            assert ctx.serialized_size(records) == size
            assert walked["records"] == before
