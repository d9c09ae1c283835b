"""The scored policy's lazy min-heap picks what ``min()`` picked.

``ScoredPolicy.choose_victim`` used to be ``min()`` over ``entries`` by
``(score, last_access, seq)``, scoring every resident block per call.
That definition is copied in below as the reference; the heap that
replaced it must return the same block after any trace of inserts,
re-inserts with a new size, accesses, removals, clears, *announced*
falls (``mark_dirty``) and *unannounced* rises of the oracles — for
``lrc`` and ``cost``, driven directly and through ``BlockStore.put``,
with a clock shared between two policies and with private clocks.

Also here: the heap's memory bound on a store that never evicts, and
the deterministic score-call counts that lock its complexity.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.policy import ScoredPolicy, make_policy
from repro.engine.block_manager import Block, BlockStore


def reference_victim(policy):
    """``ScoredPolicy.choose_victim`` as it was before the heap."""
    return min(
        policy.entries.items(),
        key=lambda kv: (policy.score_fn(kv[0], kv[1].size_bytes),
                        kv[1].last_access, kv[1].seq),
    )[0]


class Oracles:
    def __init__(self):
        self.refs = {rdd: 2 for rdd in range(4)}
        self.costs = {rdd: 2.0 for rdd in range(4)}

    def ref_fn(self, block_id):
        return self.refs[block_id[0]]

    def cost_fn(self, rdd_id):
        return self.costs[rdd_id]


def checked(policy):
    """``policy`` with every victim choice — also those ``BlockStore.put``
    makes internally — compared against the reference."""
    choose = policy.choose_victim

    def choose_victim():
        victim = choose()
        assert victim == reference_victim(policy)
        return victim
    policy.choose_victim = choose_victim
    return policy


def build(name, oracles, clock, slack_min):
    policy = checked(make_policy(name, oracles.ref_fn, oracles.cost_fn,
                                 clock=clock))
    policy._SLACK_MIN = slack_min  # 0: the heap is dropped all the time
    return policy


WHICH = st.integers(0, 1)
RDDS = st.integers(0, 3)
PIDS = st.integers(0, 4)
SIZES = st.sampled_from([10.0, 20.0, 40.0, 80.0])

_INSERT = st.tuples(st.just("insert"), WHICH, RDDS, PIDS, SIZES)
#: Falls are announced (``mark_dirty``), rises are not.
_MOVE = st.tuples(st.sampled_from(["ref_fall", "ref_rise", "cost_fall",
                                   "cost_rise"]), RDDS)
#: ``(operation, query both policies afterwards?)`` — unqueried
#: stretches let stale rows and marks pile up.
OPS = st.lists(st.tuples(st.one_of(
    _INSERT, _INSERT, _INSERT, _MOVE, _MOVE,
    st.tuples(st.just("access"), WHICH, RDDS, PIDS),
    st.tuples(st.just("remove"), WHICH, RDDS, PIDS),
    st.tuples(st.just("clear"), WHICH),
), st.booleans()), min_size=15, max_size=100)
SLACK_MIN = st.sampled_from([0, 32])


def move_oracle(kind, oracles, policies, rdd):
    if kind == "ref_rise":
        oracles.refs[rdd] += 1
    elif kind == "cost_rise":
        oracles.costs[rdd] *= 2.0
    else:
        if kind == "ref_fall":
            oracles.refs[rdd] = max(0, oracles.refs[rdd] - 1)
        else:
            oracles.costs[rdd] /= 2.0
        for policy in policies:
            for block_id in list(policy.entries):
                if block_id[0] == rdd:
                    policy.mark_dirty(block_id)


def query(policy):
    if policy.entries:
        policy.choose_victim()  # asserts against the reference


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("name", ["lrc", "cost"])
@settings(max_examples=40, deadline=None)
@given(ops=OPS, slack_min=SLACK_MIN)
def test_standalone_heap_equals_min(name, shared, ops, slack_min):
    oracles = Oracles()
    clock = itertools.count() if shared else None
    policies = [build(name, oracles, clock, slack_min) for _ in range(2)]
    for op, then_query in ops:
        kind = op[0]
        if kind.endswith(("_fall", "_rise")):
            move_oracle(kind, oracles, policies, op[1])
        else:
            policy = policies[op[1]]
            if kind == "insert":  # a resident id is re-inserted in place
                policy.on_insert((op[2], op[3]), op[4])
            elif kind == "access":
                policy.on_access((op[2], op[3]))
            elif kind == "remove":
                policy.on_remove((op[2], op[3]))
            else:
                policy.clear()
        assert all(len(p) == len(p.entries) for p in policies)
        if then_query:
            for policy in policies:
                query(policy)
    for policy in policies:
        query(policy)
    if shared and all(p.entries for p in policies):
        # One clock makes the order total across stores.
        rows = [p.min_row() for p in policies]
        best = min(range(2), key=lambda i: rows[i][:3])
        assert rows[best][3] == min(
            ((p.score_fn(bid, e.size_bytes), e.last_access, e.seq, bid)
             for p in policies for bid, e in p.entries.items()))[3]


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("name", ["lrc", "cost"])
@settings(max_examples=40, deadline=None)
@given(ops=OPS, slack_min=SLACK_MIN)
def test_heap_equals_min_through_block_store(name, shared, ops, slack_min):
    oracles = Oracles()
    clock = itertools.count() if shared else None
    policies = [build(name, oracles, clock, slack_min) for _ in range(2)]
    stores = [BlockStore(wid, 150.0, policy=policy)
              for wid, policy in enumerate(policies)]
    for op, then_query in ops:
        kind = op[0]
        if kind.endswith(("_fall", "_rise")):
            move_oracle(kind, oracles, policies, op[1])
        else:
            store = stores[op[1]]
            if kind == "insert":  # evicts through the checked policy
                store.put(Block((op[2], op[3]), [], op[4]))
            elif kind == "access":
                store.get((op[2], op[3]))
            elif kind == "remove":
                store.remove((op[2], op[3]))
            else:
                store.clear()
        for store in stores:
            assert list(store.policy.entries) == store.block_ids()
            if then_query:
                query(store.policy)
    for store in stores:
        query(store.policy)


def test_nan_score_raises_instead_of_spinning():
    policy = make_policy("lrc", ref_fn=lambda block_id: float("nan"))
    policy.on_insert((0, 0), 10.0)
    with pytest.raises(ValueError, match="NaN"):
        policy.choose_victim()
    # ... also when it turns NaN under a built heap.
    scores = {(0, 0): 1.0, (0, 1): 2.0}
    policy = make_policy("lrc", ref_fn=scores.__getitem__)
    for block_id in scores:
        policy.on_insert(block_id, 10.0)
    assert policy.choose_victim() == (0, 0)
    scores[(0, 0)] = float("nan")
    with pytest.raises(ValueError, match="NaN"):
        policy.choose_victim()


# ---- memory bound ----------------------------------------------------------


def heap_footprint(policy):
    return (len(policy._heap) if policy._heap is not None else 0) \
        + len(policy._dirty)


def test_rows_and_marks_stay_bounded_on_a_store_that_never_evicts():
    """10^4 inserts / removes / marks with a victim query only now and
    then (the heap exists, nothing ever drains it): rows + marks stay
    within a constant multiple of the resident count at every step."""
    policy = make_policy("lrc", ref_fn=lambda block_id: block_id[1] % 3)
    c, k = policy._SLACK, policy._SLACK_MIN
    resident = []
    for step in range(10_000):
        block_id = (step % 7, step)
        policy.on_insert(block_id, 10.0)
        resident.append(block_id)
        assert heap_footprint(policy) <= c * len(policy) + k
        for block_id in resident[-5:]:
            policy.mark_dirty(block_id)
            assert heap_footprint(policy) <= c * len(policy) + k
        policy.mark_dirty((99, step))  # not resident
        if len(resident) > 40:  # remove from the middle: rows go dead
            policy.on_remove(resident.pop(len(resident) // 2))
            assert heap_footprint(policy) <= c * len(policy) + k
        if step % 1000 == 500:
            assert policy.choose_victim() == reference_victim(policy)
            assert policy._heap is not None
            assert heap_footprint(policy) <= c * len(policy) + k
    assert len(policy) == 40


def test_never_queried_store_keeps_no_rows_or_marks():
    policy = make_policy("lrc", ref_fn=lambda block_id: 0)
    for pid in range(1000):
        policy.on_insert((0, pid), 10.0)
        policy.mark_dirty((0, pid))
    assert policy._heap is None and not policy._dirty


# ---- complexity lock -------------------------------------------------------


class CountingLRC(ScoredPolicy):
    """The ``lrc`` policy, counting its score calls in ``calls``."""

    def __init__(self, ref_fn):
        self.calls = 0

        def score_fn(block_id, size_bytes):
            self.calls += 1
            return float(ref_fn(block_id))
        super().__init__("lrc", score_fn)


def test_repeated_queries_score_one_block_each():
    refs = {}
    policy = CountingLRC(lambda block_id: refs.get(block_id, 1))
    for pid in range(1000):
        policy.on_insert((0, pid), 10.0)
    policy.choose_victim()
    built = policy.calls
    for _ in range(10):
        before = policy.calls
        assert policy.choose_victim() == (0, 0)
        assert policy.calls - before == 1
    assert built == 1000 + 1  # every block once, then the validated top


def test_one_announced_fall_rescores_o1_blocks():
    refs = {}
    policy = CountingLRC(lambda block_id: refs.get(block_id, 1))
    for pid in range(1000):
        policy.on_insert((0, pid), 10.0)
    policy.choose_victim()
    before = policy.calls
    refs[(0, 777)] = 0
    policy.mark_dirty((0, 777))
    assert policy.choose_victim() == (0, 777)
    assert policy.calls - before <= 2  # the marked block, then the top


def test_superseded_rows_are_dropped_when_met_not_reranked():
    """A fall pushes a second, lower row and a rise re-ranks that one:
    either way the block's older rows stay behind.  Once they surface
    they are popped for free, never re-scored into duplicates."""
    refs = {}
    policy = CountingLRC(lambda block_id: refs.get(block_id, 1))
    for pid in range(10):
        policy.on_insert((0, pid), 10.0)
    for _ in range(20):
        refs[(0, 5)] = 0
        policy.mark_dirty((0, 5))
        assert policy.choose_victim() == (0, 5)
        refs[(0, 5)] = 1  # back up, unannounced
        assert policy.choose_victim() == (0, 0)
    assert len(policy._heap) > len(policy)  # superseded rows, buried
    for pid in range(5):
        policy.on_remove((0, pid))
    policy.on_access((0, 5))  # every row of (0, 5) in the heap is now stale
    before = policy.calls
    assert policy.choose_victim() == (0, 6)
    assert policy.calls - before == 2  # (0, 5) re-ranked once, then the top
    assert len(policy._heap) == len(policy)


def test_one_unannounced_rise_rescores_o1_blocks():
    refs = {}
    policy = CountingLRC(lambda block_id: refs.get(block_id, 1))
    for pid in range(1000):
        policy.on_insert((0, pid), 10.0)
    assert policy.choose_victim() == (0, 0)
    before = policy.calls
    refs[(0, 0)] = 5
    policy.on_access((0, 1))
    assert policy.choose_victim() == (0, 2)
    assert policy.calls - before <= 3  # two stale tops re-ranked + new top
