"""Every materialised partition is deep-walked by the sizer at most once.

``evaluate`` takes serialized and heap bytes from one walk, and
``EvalContext.serialized_size`` reads the size declared for the very list
it is handed, so a source partition charged by ``charge_source_read`` is
not walked again by the ``evaluate`` that receives that list; cache hits
walk nothing.  Shuffle buckets are new lists and are walked once when
written; the list a reduce task fetches is declared at the sum of their
sizes, and a cogroup output is sized from its parents' bytes, so neither
is walked at all.  Text keys are the one exception: a cogroup task
walks its output key list and its input key list once each (two walker
calls) for the key term of ``RecordSizer.size_of_cogroup``.
"""

import dataclasses
from contextlib import contextmanager

import pytest

from repro import DatasetCollection, StarkContext
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
            # Per side: source partitions and their shuffle buckets.  The
            # shuffled partitions the reduce tasks fetch and the cogrouped
            # records are sized from those, not walked; each cogroup task
            # walks only its two text-key lists.
            assert walked["records"] == 2 * 2 * TOTAL + 2 * PARTITIONS

            assert sorted(merged.collect()) == rows
            tasks = sc.metrics.last_job().tasks
            assert sum(t.cache_hits for t in tasks) == 2 * PARTITIONS
            assert sum(t.cache_misses for t in tasks) == 0
            # Both inputs hit the cache; the uncached cogroup output is
            # materialised again and sized from the blocks' bytes.
            assert walked["records"] == 2 * 2 * TOTAL + 2 * 2 * PARTITIONS

    def test_window_cogroup_walks_only_the_filter_output(self):
        sc = new_context()
        steps = DatasetCollection(sc, HashPartitioner(PARTITIONS), "ns")
        for step in range(3):
            steps.add(step, source(sc, f"s{step}"))
        region = steps.steps[0].cogroup(steps.steps[1], steps.steps[2]) \
            .filter(lambda kv: kv[0] < "k2")
        with counting_walker() as walked:
            kept = region.collect()
        tasks = sc.metrics.last_job().tasks
        assert sum(t.cache_hits for t in tasks) == 3 * PARTITIONS
        assert 0 < len(kept) < KEYS
        # The filter's output, plus the two text-key lists of each
        # cogroup task; no cached step and no cogroup record.
        assert walked["records"] == len(kept) + 2 * PARTITIONS

    def test_checkpointing_a_cached_rdd_walks_nothing(self):
        sc = new_context()
        mapped = source(sc, "a").map(lambda kv: (kv[0], (kv[1], 1.5))).cache()
        mapped.count()
        with counting_walker() as walked:
            written = sc.checkpoint_rdd(mapped)
        assert sum(t.cache_hits for t in sc.metrics.last_job().tasks) == \
            PARTITIONS
        assert walked["records"] == 0
        assert written == sc.rdd_stats(mapped.rdd_id).size_bytes

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
