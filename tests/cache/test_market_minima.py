"""The memory market and quota displacement pick what their scans picked.

``CacheBroker._cheapest_remote_slot`` used to score every block of every
other worker; it now asks each store's policy for its minimum and scans
a store only when that minimum is cheaper than the local victim but too
small a slot.  ``TenantCacheQuotas._displacement_victim`` used to call
the value function per block; it now asks once per RDD per scan and
divides by size itself.  Both old definitions are copied in below as
references and compared — on every call the engine makes internally and
on extra probes after every step — over random multi-store traces with
quotas, reference and pin traffic, cost moves and cached-flag flips.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro import StarkConfig, StarkContext
from repro.engine.block_manager import Block
from repro.service import TenantCacheQuotas


def reference_slot(broker, local_wid, needed_bytes, local_value):
    """``_cheapest_remote_slot`` as the nested all-workers x all-blocks
    scan it was."""
    best = None
    for wid in sorted(broker._policies):
        if wid == local_wid or wid not in broker.master.stores:
            continue
        dst = broker.master.stores[wid]
        headroom = dst.capacity_bytes - dst.used_bytes
        for bid, entry in broker._policies[wid].entries.items():
            if headroom + entry.size_bytes < needed_bytes:
                continue
            value = broker.block_value(wid, bid, entry.size_bytes)
            if value >= local_value:
                continue
            key = (value, entry.last_access, entry.seq)
            if best is None or key < best[0]:
                best = (key, wid, bid)
    if best is None:
        return None
    return best[1], best[2], best[0][0]


def reference_displacement(quotas, blocks):
    """``_displacement_victim`` as the per-block generator ``min()`` it
    was (insertion index breaks value ties)."""
    if quotas.value_fn is None:
        return next(iter(blocks))
    return min(
        ((quotas.value_fn(wid, bid, size), index, (wid, bid))
         for index, ((wid, bid), size) in enumerate(blocks.items())),
    )[2]


WORKERS = st.integers(0, 2)
RDDS = st.integers(0, 3)
PIDS = st.integers(0, 3)
#: Few distinct sizes, so equal values (same RDD, same size) are common.
SIZES = st.sampled_from([100, 300, 300, 500])
_PUT = st.tuples(st.just("put"), WORKERS, RDDS, PIDS, SIZES, st.booleans())

OPS = st.lists(st.one_of(
    _PUT, _PUT, _PUT, _PUT, _PUT, _PUT,
    st.tuples(st.just("get"), WORKERS, RDDS, PIDS),
    st.tuples(st.just("remove"), st.none() | WORKERS, RDDS, PIDS),
    st.tuples(st.just("migrate"), WORKERS, WORKERS, RDDS, PIDS),
    st.tuples(st.just("lose"), WORKERS),
    st.tuples(st.just("delay"), RDDS, st.sampled_from([0.5, 1.0, 3.0, 9.0])),
    st.tuples(st.just("expect"), RDDS, st.integers(1, 2)),
    st.tuples(st.just("submit"), RDDS),
    st.tuples(st.just("complete")),
    st.tuples(st.just("flag"), RDDS, st.booleans()),
), min_size=25, max_size=80)


class Harness:
    def __init__(self):
        self.sc = sc = StarkContext(
            num_workers=3, cores_per_worker=1, memory_per_worker=1000 / 0.6,
            config=StarkConfig(cache_broker=True))
        self.master = sc.block_manager_master
        self.broker = sc.cache_broker
        # A chain (so residency and flags of one move another's cost)
        # and an unrelated source.
        base = sc.generated(lambda pid: [pid], 4, name="r0").cache()
        mid = base.map(lambda x: x, name="r1").cache()
        leaf = mid.map(lambda x: x, name="r2").cache()
        other = sc.generated(lambda pid: [pid], 4, name="r3").cache()
        self.rdds = [base, mid, leaf, other]
        for rdd, delay in zip(self.rdds, (0.25, 0.25, 1.0, 0.5)):
            sc.rdd_stats(rdd.rdd_id).record_delay(delay)
        self.quotas = quotas = TenantCacheQuotas(self.master)
        sc.cache_manager.quotas = quotas
        quotas.own(base.rdd_id, "a")
        quotas.own(mid.rdd_id, "a")
        quotas.own(leaf.rdd_id, "b")  # ``other`` stays unowned
        quotas.set_quota("a", 1100.0)
        quotas.set_quota("b", 700.0)
        self.open_jobs = []
        self.next_job = 0
        self.slot_calls = self.displacement_calls = 0
        # Check every call the engine itself makes.
        slot, displacement = (self.broker._cheapest_remote_slot,
                              quotas._displacement_victim)

        def checked_slot(local_wid, needed_bytes, local_value):
            self.slot_calls += 1
            want = reference_slot(self.broker, local_wid, needed_bytes,
                                  local_value)
            got = slot(local_wid, needed_bytes, local_value)
            assert got == want
            return got

        def checked_displacement(blocks):
            self.displacement_calls += 1
            want = reference_displacement(quotas, blocks)
            got = displacement(blocks)
            assert got == want
            return got

        self.broker._cheapest_remote_slot = checked_slot
        quotas._displacement_victim = checked_displacement

    def bid(self, rdd_index, pid):
        return (self.rdds[rdd_index].rdd_id, pid)

    def apply(self, op):
        sc, master, manager = self.sc, self.master, self.sc.cache_manager
        kind = op[0]
        if kind == "put":
            _, wid, rdd, pid, size, gated = op
            bid = self.bid(rdd, pid)
            if not gated or manager.should_admit(bid[0], float(size)):
                master.put(wid, Block(bid, ["r"], float(size)))
        elif kind == "get":
            master.get_local(op[1], self.bid(op[2], op[3]))
        elif kind == "remove":
            master.remove_block(self.bid(op[2], op[3]), op[1])
        elif kind == "migrate":
            master.migrate_block(self.bid(op[3], op[4]), op[1], op[2])
        elif kind == "lose":
            master.lose_worker(op[1])
        elif kind == "delay":
            sc.rdd_stats(self.rdds[op[1]].rdd_id).record_delay(op[2])
        elif kind == "expect":
            manager.expect(self.rdds[op[1]], op[2])
        elif kind == "submit":  # references and prefix pins rise
            rdd = self.rdds[op[1]]
            manager.on_job_submit(self.next_job, rdd,
                                  [SimpleNamespace(stage_id=0, rdd=rdd)])
            self.open_jobs.append(self.next_job)
            self.next_job += 1
        elif kind == "complete":  # ... and fall
            if self.open_jobs:
                job_id = self.open_jobs.pop(0)
                manager.on_stage_complete(job_id, 0)
                manager.on_job_complete(job_id)
        else:
            self.rdds[op[1]].cached = op[2]

    def probe(self):
        """Ask both questions from every angle the state allows."""
        broker = self.broker
        values = sorted({broker.block_value(wid, bid, entry.size_bytes)
                         for wid, policy in broker._policies.items()
                         for bid, entry in policy.entries.items()})
        thresholds = values[:1] + values[len(values) // 2:][:1] \
            + values[-1:] + [float("inf")]
        for local_wid in sorted(self.master.stores):
            for needed in (100.0, 300.0, 600.0):
                for local_value in thresholds:
                    broker._cheapest_remote_slot(local_wid, needed,
                                                 local_value)
        for blocks in self.quotas._blocks.values():
            if blocks:
                self.quotas._displacement_victim(blocks)


@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_market_and_displacement_equal_their_scans(ops):
    harness = Harness()
    for op in ops:
        harness.apply(op)
        harness.probe()


def test_pinned_trace_reaches_market_and_displacement():
    """The random suite above is only worth its name if the engine's own
    calls (not just the probes) hit both functions: a trace that does."""
    harness = Harness()
    for pid in range(3):                         # worker 0: 900 of 1000,
        harness.apply(("put", 0, 2, pid, 200, False))
    harness.apply(("put", 0, 1, 0, 300, False))  # r1 its cheapest block
    for pid in range(2):                         # worker 1: cheaper r3
        harness.apply(("put", 1, 3, pid, 500, False))
    harness.apply(("put", 0, 2, 3, 200, False))  # r1 trades for an r3 slot
    for pid in range(2):                         # tenant "a" goes over 1100
        harness.apply(("put", 2, 0, pid, 500, True))
    assert harness.slot_calls > 0
    assert harness.displacement_calls > 0
    assert harness.broker.broker_migrations > 0
    assert harness.quotas.quota_evictions > 0


def test_every_kind_of_falling_reference_reaches_the_heap():
    """A pending release, a declared-use drain and a prefix unpin each
    lower a block's value; each must be announced to the store holding
    it, or the heap keeps ranking the block where it was."""
    sc = StarkContext(num_workers=1, cores_per_worker=1,
                      memory_per_worker=1e6,
                      config=StarkConfig(cache_broker=True))
    manager, master = sc.cache_manager, sc.block_manager_master

    def pipeline():
        return sc.generated(_source, 1, name="scan").map(_triple).cache()

    hot, cold = pipeline(), sc.generated(lambda pid: [pid], 1).cache()
    sc.rdd_stats(hot.rdd_id).record_delay(1.0)
    sc.rdd_stats(cold.rdd_id).record_delay(1.5)
    for rdd in (hot, cold):
        master.put(0, Block((rdd.rdd_id, 0), ["r"], 100.0))
    policy = sc.cache_broker.policy_for(0)
    stage = SimpleNamespace(stage_id=0, rdd=hot)
    # Unreferenced, ``hot`` (1.0) is worth less than ``cold`` (1.5); one
    # reference of any kind doubles it past ``cold``.
    assert policy.choose_victim() == (hot.rdd_id, 0)

    manager.expect(hot, 1)
    manager.on_job_submit(1, hot, [stage])          # pending + declared
    assert policy.choose_victim() == (cold.rdd_id, 0)
    manager.on_stage_complete(1, 0)                 # pending released ...
    assert sc.cache_broker.cross_job_refcount((hot.rdd_id, 0)) == 1
    assert policy.choose_victim() == (cold.rdd_id, 0)
    manager.on_job_complete(1)                      # ... declared drained
    assert policy.choose_victim() == (hot.rdd_id, 0)

    manager.on_job_submit(2, hot, [stage])
    assert policy.choose_victim() == (cold.rdd_id, 0)
    manager.on_stage_complete(2, 0)                 # pending alone
    assert policy.choose_victim() == (hot.rdd_id, 0)
    manager.on_job_complete(2)

    manager.on_job_submit(3, pipeline(), [])        # same prefix: a pin
    assert sc.cache_broker.pin_count(hot.rdd_id) == 1
    assert policy.choose_victim() == (cold.rdd_id, 0)
    manager.on_job_complete(3)                      # unpinned
    assert policy.choose_victim() == (hot.rdd_id, 0)


def test_recency_policies_are_told_of_no_falls(monkeypatch):
    """``lru`` / ``fifo`` stores have no score, so reference traffic must
    not fan out over their blocks (``stream_taxi`` releases ~10^4
    references a pass); a scored configuration must."""
    from repro.engine.block_manager import BlockManagerMaster

    fanouts = []
    blocks_of = BlockManagerMaster.blocks_of
    monkeypatch.setattr(
        BlockManagerMaster, "blocks_of",
        lambda self, rdd_id: fanouts.append(rdd_id) or blocks_of(self, rdd_id))
    for policy, told in (("lru", False), ("fifo", False), ("lrc", True),
                         ("cost", True)):
        del fanouts[:]
        sc = StarkContext(num_workers=2, cores_per_worker=1,
                          config=StarkConfig(cache_policy=policy))
        rdd = sc.generated(_source, 2).map(_triple).cache()
        rdd.count(), rdd.count()
        assert bool(fanouts) == told, policy


def _source(pid):
    return [(pid, 1)]


def _triple(kv):
    return (kv[0], kv[1] * 3)


class CountingDict(dict):
    """``entries`` that counts whole-store reads."""

    scans = 0

    def items(self):
        self.scans += 1
        return super().items()

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_only_a_cheaper_but_too_small_minimum_makes_a_store_scanned():
    sc = StarkContext(
        num_workers=4, cores_per_worker=1, memory_per_worker=1000 / 0.6,
        config=StarkConfig(cache_broker=True))
    master, broker = sc.block_manager_master, sc.cache_broker
    cheap, dear = (sc.generated(lambda pid: [pid], 8).cache()
                   for _ in range(2))
    sc.rdd_stats(cheap.rdd_id).record_delay(1.0)
    sc.rdd_stats(dear.rdd_id).record_delay(50.0)
    # Every store full (no headroom).  Minimum of worker 1: the 500-byte
    # cheap block; of worker 2: the 900-byte cheap block, the cheapest in
    # the cluster; worker 3 holds nothing cheaper than the local victim.
    for wid, rdd, pid, size in ((1, cheap, 0, 500), (1, dear, 0, 500),
                                (2, cheap, 1, 900), (2, dear, 1, 100),
                                (3, dear, 2, 500), (3, dear, 3, 500)):
        master.put(wid, Block((rdd.rdd_id, pid), ["r"], float(size)))
    local_value = 20.0 / 500    # dearer than ``cheap``, cheaper than ``dear``
    for policy in broker._policies.values():
        policy.entries = CountingDict(policy.entries)
        if policy.entries:
            policy.min_row()    # build each heap: steady state from here

    def scans_of(needed_bytes):
        for policy in broker._policies.values():
            policy.entries.scans = 0
        got = broker._cheapest_remote_slot(0, needed_bytes, local_value)
        scans = [broker._policies[w].entries.scans for w in (1, 2, 3)]
        assert got == reference_slot(broker, 0, needed_bytes, local_value)
        return got, scans

    # Both minima fit: two lookups, no store read.
    assert scans_of(400.0) == ((2, (cheap.rdd_id, 1), 1.0 / 900), [0, 0, 0])
    # Worker 1's minimum frees too little: that store alone is scanned.
    assert scans_of(600.0) == ((2, (cheap.rdd_id, 1), 1.0 / 900), [1, 0, 0])
    # Neither minimum frees enough; worker 3's is not cheaper, so it is
    # skipped without a scan whatever the size asked for.
    assert scans_of(950.0) == (None, [1, 1, 0])


def test_too_small_minimum_falls_back_to_the_fitting_block():
    """The pinned example: a store whose minimum is cheaper than the
    local victim but frees too little, with a pricier — still cheaper —
    block behind it that does fit."""
    sc = StarkContext(
        num_workers=2, cores_per_worker=1, memory_per_worker=1000 / 0.6,
        config=StarkConfig(cache_broker=True))
    master, broker = sc.block_manager_master, sc.cache_broker
    tiny, roomy = (sc.generated(lambda pid: [pid], 2).cache()
                   for _ in range(2))
    sc.rdd_stats(tiny.rdd_id).record_delay(0.1)    # 0.1 / 100  = 0.001
    sc.rdd_stats(roomy.rdd_id).record_delay(4.5)   # 4.5 / 900  = 0.005
    master.put(1, Block((tiny.rdd_id, 0), ["r"], 100.0))
    master.put(1, Block((roomy.rdd_id, 0), ["r"], 900.0))
    assert broker.policy_for(1).min_row()[3] == (tiny.rdd_id, 0)
    got = broker._cheapest_remote_slot(0, 500.0, 0.01)
    assert got == (1, (roomy.rdd_id, 0), 4.5 / 900.0)
    assert got == reference_slot(broker, 0, 500.0, 0.01)
    # With room for it, the minimum itself is the answer.
    assert broker._cheapest_remote_slot(0, 100.0, 0.01) == (
        1, (tiny.rdd_id, 0), 0.1 / 100.0)


def test_displacement_breaks_equal_values_by_insertion_order():
    sc = StarkContext(
        num_workers=2, cores_per_worker=1, memory_per_worker=1e6,
        config=StarkConfig(cache_broker=True))
    master = sc.block_manager_master
    quotas = TenantCacheQuotas(master)
    sc.cache_manager.quotas = quotas
    rdd = sc.generated(lambda pid: [pid], 4).cache()
    sc.rdd_stats(rdd.rdd_id).record_delay(2.0)
    quotas.own(rdd.rdd_id, "a")
    for wid, pid in ((1, 2), (0, 0), (1, 3), (0, 1)):
        master.put(wid, Block((rdd.rdd_id, pid), ["r"], 100.0))
    blocks = quotas._blocks["a"]
    assert quotas._displacement_victim(blocks) == (1, (rdd.rdd_id, 2))
    assert reference_displacement(quotas, blocks) == (1, (rdd.rdd_id, 2))
    # A smaller block of the same RDD is worth more per byte; a bigger
    # one less — it goes first wherever it sits in the order.
    master.put(0, Block((rdd.rdd_id, 3), ["r"], 400.0))
    assert quotas._displacement_victim(blocks) == (0, (rdd.rdd_id, 3))


def test_displacement_asks_the_value_function_once_per_rdd():
    sc = StarkContext(
        num_workers=2, cores_per_worker=1, memory_per_worker=1e6,
        config=StarkConfig(cache_broker=True))
    master = sc.block_manager_master
    quotas = TenantCacheQuotas(master)
    sc.cache_manager.quotas = quotas
    rdds = [sc.generated(lambda pid: [pid], 8).cache() for _ in range(3)]
    for rdd in rdds:
        quotas.own(rdd.rdd_id, "a")
        for pid in range(8):
            master.put(pid % 2, Block((rdd.rdd_id, pid), ["r"], 100.0))
    calls = []
    value_fn = quotas.value_fn
    quotas.value_fn = lambda *args: calls.append(args) or value_fn(*args)
    quotas._displacement_victim(quotas._blocks["a"])
    assert len(calls) == len(rdds)  # 24 blocks, 3 RDDs


def test_service_run_walks_lineage_once_per_change_not_per_comparison():
    """A broker-mode service run makes at most (distinct RDDs scored +
    invalidations) lineage walks, however many victims it compares."""
    from repro.service import DatasetService

    sc = StarkContext(
        num_workers=4, cores_per_worker=2, memory_per_worker=20000 / 0.6,
        config=StarkConfig(cache_broker=True, locality_enabled=False,
                           mcf_enabled=False, replication_enabled=False,
                           scheduling_policy="fair"))
    manager = sc.cache_manager
    counts = {"walks": 0, "invalidations": 0, "scored": set()}
    walk, invalidate = manager._walk_recompute_cost, manager.invalidate_cost

    def counting_walk(rdd_id):
        counts["walks"] += 1
        counts["scored"].add(rdd_id)
        return walk(rdd_id)

    def counting_invalidate(rdd_id):
        before = len(manager._cost_memo)
        invalidate(rdd_id)
        counts["invalidations"] += before - len(manager._cost_memo)

    manager._walk_recompute_cost = counting_walk
    # The context, the block master and every RDDStats share one bound
    # callable; ``RDD.cached`` looks the method up — patch both.
    manager.invalidate_cost = counting_invalidate
    sc._invalidate_cost = counting_invalidate
    sc.block_manager_master.residency_listener = counting_invalidate
    assert not sc._rdd_stats  # none created with the unpatched callable

    service = DatasetService(sc)
    for tenant in ("a", "b"):
        service.create_tenant(tenant)
    datasets = 12
    for d in range(datasets):
        rdd = sc.generated(lambda pid, d=d: [(d, pid)] * 40, 4,
                           name=f"d{d}").map(lambda kv: kv)
        service.register_dataset("ab"[d % 2], f"d{d}", rdd).release()

    def job(d):
        def run(arrival, index):
            with service.lookup_dataset("ab"[d % 2], f"d{d}") as handle:
                sc.run_job(handle.rdd, len, submit_time=arrival)
            return sc.metrics.last_job().finish_time
        return run

    for j in range(200):
        d = (j * 7) % datasets
        service.submit("ab"[d % 2], job(d), j * 0.05)
    service.run()

    assert sc.metrics.evictions + sc.cache_broker.broker_evictions > 50
    assert counts["walks"] <= len(counts["scored"]) + counts["invalidations"]
    assert counts["walks"] < 20 * datasets  # one per comparison: ~10^5
