"""The memoised recompute cost equals a fresh lineage walk, always.

``CacheManager.estimate_recompute_cost`` keeps one value per RDD and
drops it on four events (delay rose, resident set empty <-> non-empty,
checkpoint written, ``cached`` flipped).  The definition it replaced —
walk the lineage on every call — is copied in below as the reference;
random interleavings of every operation that can move the estimate are
driven over random narrow + shuffle DAGs, and after every step (and
inside every block-store notification) the memo must equal the walk for
every RDD, bit for bit.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import StarkConfig, StarkContext
from repro.engine.block_manager import Block
from repro.engine.partitioner import HashPartitioner
from repro.engine.shuffled import CoGroupedRDD


def reference_cost(context, rdd_id):
    """``estimate_recompute_cost`` as it was before the memo."""
    total = 0.0
    seen = set()
    stack = [rdd_id]
    root = True
    while stack:
        rid = stack.pop()
        if rid in seen:
            continue
        seen.add(rid)
        if not root:
            if context.checkpoint_store.has_checkpoint(rid):
                continue
            rdd = context.get_rdd(rid)
            if rdd.cached and context.block_manager_master.cached_partitions_of(rid):
                continue
        else:
            rdd = context.get_rdd(rid)
            root = False
        total += context.rdd_stats(rid).max_partition_delay
        for dep in rdd.narrow_dependencies():
            stack.append(dep.rdd.rdd_id)
    return total


IDX = st.integers(0, 63)
WORKERS = st.integers(0, 2)

#: Each node derives from earlier ones: diamonds arise when a cogroup's
#: two sides share a narrow ancestor, shuffles cut the narrow chain.
NODES = st.lists(st.tuples(
    st.sampled_from(["map", "filter", "cogroup", "shuffle"]), IDX, IDX,
    st.booleans()), min_size=1, max_size=7)

#: The layout ``reduce_by_key`` picks for two partitions, so a cogroup
#: over shuffle outputs (and their filters) reads both sides narrowly.
PART = HashPartitioner(2)

OPS = st.lists(st.one_of(
    st.tuples(st.just("cache"), IDX),
    st.tuples(st.just("unpersist"), IDX),
    st.tuples(st.just("flag"), IDX, st.booleans()),
    st.tuples(st.just("put"), IDX, IDX, WORKERS, st.integers(100, 600)),
    st.tuples(st.just("evict"), IDX, IDX, st.none() | WORKERS),
    st.tuples(st.just("migrate"), IDX, IDX, WORKERS, WORKERS),
    st.tuples(st.just("lose"), WORKERS),
    st.tuples(st.just("checkpoint"), IDX),
    st.tuples(st.just("delay"), IDX,
              st.floats(0.0, 10.0, allow_nan=False)),
    st.tuples(st.just("count"), IDX),
), max_size=25)


def _source(pid):
    return [(pid, 1), (pid + 1, 2), (pid, 3)]


def _total(groups):
    return sum(v for values in groups for v in values)


class Harness:
    def __init__(self, mode, nodes):
        self.sc = sc = StarkContext(
            num_workers=3, cores_per_worker=1, memory_per_worker=1000 / 0.6,
            config=StarkConfig(cache_broker=mode == "broker",
                               cache_policy="cost"))
        built = [sc.generated(_source, 2, read_cost="disk")]
        for kind, a, b, cached in nodes:
            left, right = built[a % len(built)], built[b % len(built)]
            if kind == "map":
                node = left.map(lambda kv: (kv[0], kv[1] + 1))
            elif kind == "filter":
                node = left.filter(lambda kv: kv[1] != 2)
            elif kind == "cogroup":  # the one multi-parent narrow RDD
                node = left.partition_by(PART).cogroup(
                    right.partition_by(PART)).map_values(_total)
            else:
                node = left.reduce_by_key(lambda x, y: x + y)
            if cached:
                node.cache()
            built.append(node)
        #: Every RDD of the context (``reduce_by_key`` registers several).
        self.rdds = [sc.get_rdd(rid) for rid in sorted(sc._rdds)]
        self.manager = sc.cache_manager
        self.master = sc.block_manager_master
        self.checks = 0
        self.master.add_insert_listener(lambda wid, block: self.check())
        self.master.add_block_event_listener(
            lambda wid, bid, reason: self.check())

    def rdd(self, index):
        return self.rdds[index % len(self.rdds)]

    def check(self):
        self.checks += 1
        for rdd in self.rdds:
            assert (self.manager.estimate_recompute_cost(rdd.rdd_id)
                    == reference_cost(self.sc, rdd.rdd_id)), rdd.rdd_id

    def apply(self, op):
        kind, rdd = op[0], self.rdd(op[1]) if op[0] != "lose" else None
        master = self.master
        if kind == "cache":
            rdd.cache()
        elif kind == "unpersist":
            rdd.unpersist()
        elif kind == "flag":
            rdd.cached = op[2]
        elif kind == "put":
            bid = (rdd.rdd_id, op[2] % rdd.num_partitions)
            # A planted block holds records of its RDD's shape: a cogroup's
            # read back through ``map_values(_total)`` must still sum.
            record = (0, ([1], [1])) if isinstance(rdd, CoGroupedRDD) else (0, 1)
            master.put(op[3], Block(bid, [record], float(op[4])))
        elif kind == "evict":
            master.remove_block((rdd.rdd_id, op[2] % rdd.num_partitions),
                                op[3])
        elif kind == "migrate":
            master.migrate_block((rdd.rdd_id, op[2] % rdd.num_partitions),
                                 src=op[3], dst=op[4])
        elif kind == "lose":
            master.lose_worker(op[1])
        elif kind == "checkpoint":
            rdd.count()  # forceCheckpoint needs its shuffles materialized
            rdd.force_checkpoint()
        elif kind == "delay":
            self.sc.rdd_stats(rdd.rdd_id).record_delay(op[2])
        elif kind == "count":
            rdd.count()
        self.check()


@pytest.mark.parametrize("mode", ["cost", "broker"])
@settings(max_examples=200, deadline=None)
@given(nodes=NODES, ops=OPS)
def test_memo_equals_fresh_walk_after_every_step(mode, nodes, ops):
    harness = Harness(mode, nodes)
    harness.check()
    for op in ops:
        harness.apply(op)


def test_each_invalidating_event_is_seen():
    """One pinned trace where every one of the four events moves the
    estimate of a memoised descendant."""
    sc = StarkContext(num_workers=2, cores_per_worker=1,
                      memory_per_worker=1e6)
    base = sc.generated(_source, 2, read_cost="disk")
    mid = base.map(lambda kv: kv)
    leaf = mid.map(lambda kv: kv)
    cost = sc.cache_manager.estimate_recompute_cost
    for rdd, delay in ((base, 4.0), (mid, 2.0), (leaf, 1.0)):
        sc.rdd_stats(rdd.rdd_id).record_delay(delay)
    assert cost(leaf.rdd_id) == 7.0
    sc.rdd_stats(mid.rdd_id).record_delay(1.5)   # not a rise
    assert cost(leaf.rdd_id) == 7.0
    sc.rdd_stats(mid.rdd_id).record_delay(3.0)   # delay rose
    assert cost(leaf.rdd_id) == 8.0
    mid.cached = True                            # flag alone: no blocks yet
    assert cost(leaf.rdd_id) == 8.0
    sc.block_manager_master.put(0, Block((mid.rdd_id, 0), [0], 10.0))
    assert cost(leaf.rdd_id) == 1.0              # resident set non-empty
    mid.cached = False                           # flag flipped
    assert cost(leaf.rdd_id) == 8.0
    mid.cached = True
    sc.block_manager_master.remove_block((mid.rdd_id, 0))
    assert cost(leaf.rdd_id) == 8.0              # resident set empty
    base.force_checkpoint()                      # checkpoint written
    assert cost(leaf.rdd_id) == reference_cost(sc, leaf.rdd_id)
    assert cost(mid.rdd_id) == sc.rdd_stats(mid.rdd_id).max_partition_delay


def test_every_rdd_stats_shares_one_invalidation_callable():
    """The delay hook is one callable per context, not one bound method
    per ``RDDStats`` (10^4 of those cost a few MB of peak RSS)."""
    sc = StarkContext(num_workers=1, cores_per_worker=1)
    hooks = {id(sc.rdd_stats(rdd_id)._on_delay_raised)
             for rdd_id in range(10_000)}
    assert hooks == {id(sc.block_manager_master.residency_listener)}
    assert sc.block_manager_master.residency_listener is not None


def test_a_scan_walks_lineage_once_per_rdd_then_not_at_all(monkeypatch):
    """Scoring N resident blocks of k RDDs reads lineage k times; doing
    it again reads none.  Counted where a walk cannot avoid being seen —
    ``narrow_dependencies`` of each walk's root — so the same test fails
    (N walks, then N more) against the unmemoised estimate."""
    from repro.engine.rdd import RDD

    sc = StarkContext(num_workers=4, cores_per_worker=1,
                      memory_per_worker=1e9,
                      config=StarkConfig(cache_broker=True))
    k, partitions = 5, 40
    rdds = [sc.generated(_source, partitions).map(lambda kv: kv).cache()
            for _ in range(k)]
    for rdd in rdds:
        sc.rdd_stats(rdd.rdd_id).record_delay(1.0 + rdd.rdd_id)
        for pid in range(partitions):
            sc.block_manager_master.put(
                pid % 4, Block((rdd.rdd_id, pid), [(0, 1)], 100.0))
    roots = {rdd.rdd_id for rdd in rdds}
    walks = []
    narrow_dependencies = RDD.narrow_dependencies

    def counting(self):
        if self.rdd_id in roots:
            walks.append(self.rdd_id)
        return narrow_dependencies(self)

    monkeypatch.setattr(RDD, "narrow_dependencies", counting)
    broker = sc.cache_broker
    assert len(broker.top_blocks(n=k * partitions)) == k * partitions
    assert sorted(walks) == sorted(roots)
    broker.top_blocks(n=k * partitions)
    for wid in range(4):
        broker.choose_local_victim(wid)
        for bid in sc.block_manager_master.stores[wid].block_ids():
            broker.block_value(wid, bid)
    assert len(walks) == k
