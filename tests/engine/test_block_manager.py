"""Tests for the block stores and the cluster-wide block master."""

import pytest
from hypothesis import given, strategies as st

from repro.engine.block_manager import Block, BlockManagerMaster, BlockStore


def block(rdd_id, pid, size, records=None):
    return Block((rdd_id, pid), records or ["r"], float(size))


class TestBlockStore:
    def test_put_and_get(self):
        store = BlockStore(0, 100.0)
        store.put(block(1, 0, 40))
        assert (1, 0) in store
        assert store.get((1, 0)).size_bytes == 40

    def test_used_bytes_tracks_puts(self):
        store = BlockStore(0, 100.0)
        store.put(block(1, 0, 40))
        store.put(block(1, 1, 30))
        assert store.used_bytes == 70

    def test_lru_eviction_order(self):
        store = BlockStore(0, 100.0)
        store.put(block(1, 0, 40))
        store.put(block(1, 1, 40))
        store.get((1, 0))  # touch block 0: block 1 becomes LRU
        evicted = store.put(block(1, 2, 40))
        assert [b.block_id for b in evicted] == [(1, 1)]
        assert (1, 0) in store and (1, 2) in store

    def test_replacing_same_block_does_not_double_count(self):
        store = BlockStore(0, 100.0)
        store.put(block(1, 0, 40))
        store.put(block(1, 0, 50))
        assert store.used_bytes == 50
        assert len(store) == 1

    def test_block_larger_than_capacity_rejected(self):
        store = BlockStore(0, 100.0)
        assert store.put(block(1, 0, 200)) is None
        assert (1, 0) not in store
        assert store.used_bytes == 0

    def test_eviction_count(self):
        store = BlockStore(0, 100.0)
        for pid in range(4):
            store.put(block(1, pid, 40))
        assert store.eviction_count == 2

    def test_remove(self):
        store = BlockStore(0, 100.0)
        store.put(block(1, 0, 40))
        removed = store.remove((1, 0))
        assert removed is not None
        assert store.used_bytes == 0
        assert store.remove((1, 0)) is None

    def test_clear_returns_lost_blocks(self):
        store = BlockStore(0, 100.0)
        store.put(block(1, 0, 40))
        store.put(block(2, 0, 40))
        lost = store.clear()
        assert len(lost) == 2
        assert store.used_bytes == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            BlockStore(0, 0.0)

    def test_peek_does_not_touch_lru(self):
        store = BlockStore(0, 100.0)
        store.put(block(1, 0, 40))
        store.put(block(1, 1, 40))
        store.peek((1, 0))  # must NOT refresh block 0
        evicted = store.put(block(1, 2, 40))
        assert [b.block_id for b in evicted] == [(1, 0)]

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.floats(min_value=1, max_value=60)),
                    max_size=40))
    def test_capacity_invariant_under_any_sequence(self, puts):
        store = BlockStore(0, 100.0)
        for rdd_id, pid, size in puts:
            store.put(block(rdd_id, pid, size))
            assert store.used_bytes <= 100.0 + 1e-9
            assert store.used_bytes == pytest.approx(
                sum(store.peek(b).size_bytes for b in store.block_ids())
            )


class TestBlockManagerMaster:
    def make_master(self, workers=3, capacity=100.0):
        return BlockManagerMaster(range(workers), lambda wid: capacity)

    def test_put_registers_location(self):
        master = self.make_master()
        master.put(0, block(1, 0, 40))
        assert master.locations((1, 0)) == {0}

    def test_multiple_locations(self):
        master = self.make_master()
        master.put(0, block(1, 0, 40))
        master.put(2, block(1, 0, 40))
        assert master.locations((1, 0)) == {0, 2}

    def test_eviction_updates_locations(self):
        master = self.make_master(capacity=100.0)
        master.put(0, block(1, 0, 60))
        master.put(0, block(1, 1, 60))  # evicts (1, 0)
        assert master.locations((1, 0)) == set()
        assert master.locations((1, 1)) == {0}

    def test_eviction_listener_fires(self):
        master = self.make_master(capacity=100.0)
        events = []
        master.add_block_event_listener(
            lambda wid, bid, reason: events.append((wid, bid, reason)))
        master.put(0, block(1, 0, 60))
        master.put(0, block(1, 1, 60))
        assert events == [(0, (1, 0), "capacity")]

    def test_rejected_oversize_block_not_registered(self):
        master = self.make_master(capacity=100.0)
        assert master.put(0, block(1, 0, 500)) is None
        assert master.locations((1, 0)) == set()

    def test_rejected_oversize_reput_leaves_resident_version_alone(self):
        """Regression: an oversized re-put of a resident id used to be
        taken for an accepted insert that evicted itself — the insert
        listener fired with the rejected size, then the still-resident
        block lost its location and a "capacity" removal was posted for
        a block that never left."""
        master = self.make_master(capacity=100.0)
        inserted, removed = [], []
        master.add_insert_listener(
            lambda wid, blk: inserted.append((wid, blk.size_bytes)))
        master.add_block_event_listener(
            lambda wid, bid, reason: removed.append((wid, bid, reason)))
        master.put(0, block(1, 0, 50))
        result = master.put(0, block(1, 0, 500))
        store = master.stores[0]
        assert store.peek((1, 0)).size_bytes == 50
        assert store.used_bytes == 50
        assert len(store.policy) == 1
        assert master.locations((1, 0)) == {0}
        assert master.cached_partitions_of(1) == {0}
        assert inserted == [(0, 50.0)]
        assert removed == []
        assert result is None

    def test_migration_rejected_by_small_destination(self):
        master = BlockManagerMaster(
            [0, 1], lambda wid: 100.0 if wid == 0 else 40.0)
        removed = []
        master.add_block_event_listener(
            lambda wid, bid, reason: removed.append((wid, bid, reason)))
        master.put(0, block(1, 0, 60))
        master.put(1, block(2, 0, 30))
        assert master.migrate_block((1, 0), src=0, dst=1) is False
        assert master.locations((1, 0)) == {0}
        assert (2, 0) in master.stores[1]  # nothing evicted to no purpose
        assert removed == []

    def test_remove_rdd(self):
        master = self.make_master()
        master.put(0, block(1, 0, 10))
        master.put(1, block(1, 1, 10))
        master.put(1, block(2, 0, 10))
        master.remove_rdd(1)
        assert not master.is_cached_anywhere((1, 0))
        assert not master.is_cached_anywhere((1, 1))
        assert master.is_cached_anywhere((2, 0))

    def test_lose_worker(self):
        master = self.make_master()
        master.put(0, block(1, 0, 10))
        master.put(0, block(2, 0, 10))
        master.put(1, block(1, 0, 10))
        lost = master.lose_worker(0)
        assert sorted(lost) == [(1, 0), (2, 0)]
        assert master.locations((1, 0)) == {1}

    def test_cached_partitions_of(self):
        master = self.make_master()
        master.put(0, block(7, 0, 10))
        master.put(1, block(7, 3, 10))
        assert master.cached_partitions_of(7) == {0, 3}

    def test_is_cached_on(self):
        master = self.make_master()
        master.put(2, block(1, 0, 10))
        assert master.is_cached_on(2, (1, 0))
        assert not master.is_cached_on(0, (1, 0))

    def test_total_cached_bytes(self):
        master = self.make_master()
        master.put(0, block(1, 0, 10))
        master.put(1, block(1, 1, 30))
        assert master.total_cached_bytes() == 40
