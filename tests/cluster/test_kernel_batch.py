"""Property tests for the kernel's batched fast paths.

Two optimizations must be *observationally invisible*:

* :meth:`EventQueue.schedule_many` (one heapify for a batch) vs a loop
  of :meth:`EventQueue.schedule` calls — identical delivery order and a
  byte-identical delivery log;
* :meth:`SimKernel.earliest_free_worker` (the lazy inter-worker
  ``(free_time, worker_id)`` heap) vs the O(workers x cores) scan it
  replaced — identical pick after any interleaving of slot mutations.

Hypothesis drives random interleavings of schedule / schedule_many /
cancel / run_until so the equivalences hold as invariants, not just on
the happy path the benchmarks exercise.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.cluster.events import EventQueue, SimKernel
from repro.cluster.worker import Worker

# Coarse time grid: plenty of exact collisions, so the (time, seq)
# tie-break is exercised constantly rather than by luck.
_delays = st.integers(min_value=0, max_value=20).map(lambda k: k * 0.5)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _delays),
        st.tuples(st.just("many"), st.lists(_delays, min_size=1, max_size=8)),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("run_until"), _delays),
    ),
    max_size=40,
)


def _drive(queue, ops, batched):
    """Apply ``ops`` to ``queue``; return the delivery log as bytes.

    ``batched=True`` routes the "many" ops through ``schedule_many``;
    otherwise they degrade to per-item ``schedule`` calls — the
    reference semantics the batch path must reproduce exactly.
    """
    log = []
    handles = []
    tags = iter(range(10**9))

    def deliver(tag):
        log.append({"t": queue.clock.now, "tag": tag})

    for op in ops:
        if op[0] == "schedule":
            tag = next(tags)
            handles.append(queue.schedule(
                queue.clock.now + op[1], lambda tag=tag: deliver(tag)))
        elif op[0] == "many":
            batch = []
            for dt in op[1]:
                tag = next(tags)
                batch.append((queue.clock.now + dt,
                              lambda tag=tag: deliver(tag)))
            if batched:
                handles.extend(queue.schedule_many(batch))
            else:
                handles.extend(queue.schedule(t, cb) for t, cb in batch)
        elif op[0] == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif op[0] == "run_until":
            queue.run_until(queue.clock.now + op[1])
    queue.run_all()
    return b"".join(json.dumps(entry, sort_keys=True).encode() + b"\n"
                    for entry in log)


class TestScheduleManyEquivalence:
    @given(ops=_ops)
    @settings(deadline=None, max_examples=200)
    def test_batched_delivery_log_is_byte_identical(self, ops):
        reference = _drive(EventQueue(), ops, batched=False)
        batched = _drive(EventQueue(), ops, batched=True)
        assert batched == reference

    @given(delays=st.lists(_delays, min_size=1, max_size=12))
    @settings(deadline=None)
    def test_handles_carry_list_order_times(self, delays):
        queue = EventQueue()
        batch = [(t, lambda: None) for t in delays]
        handles = queue.schedule_many(batch)
        assert [h.time for h in handles] == delays
        assert len(queue) == len(delays)

    def test_past_time_rejected_and_heap_untouched(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.run_until(5.0)
        try:
            queue.schedule_many([(6.0, lambda: None), (2.0, lambda: None)])
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("past time must be rejected")
        assert len(queue) == 0


def _scan_earliest(kernel):
    """The O(workers x cores) reference the heap query replaced."""
    best = None
    for wid in sorted(kernel._workers):
        worker = kernel._workers[wid]
        if not worker.alive:
            continue
        times = worker.slot_free_times
        slot = min(range(worker.cores), key=times.__getitem__)
        if best is None or times[slot] < best[2]:
            best = (wid, slot, times[slot])
    return best


_slot_ops = st.lists(
    st.one_of(
        st.tuples(st.just("occupy"), st.integers(0), _delays, _delays),
        st.tuples(st.just("set"), st.integers(0), st.integers(0), _delays),
        st.tuples(st.just("kill"), st.integers(0)),
        st.tuples(st.just("restart"), st.integers(0), _delays),
        st.tuples(st.just("reset"), st.integers(0)),
    ),
    max_size=30,
)


class TestFreeSlotHeapEquivalence:
    @given(
        cores=st.lists(st.integers(min_value=1, max_value=4),
                       min_size=1, max_size=5),
        ops=_slot_ops,
    )
    @settings(deadline=None, max_examples=200)
    def test_matches_scan_after_any_mutation(self, cores, ops):
        kernel = SimKernel()
        workers = [Worker(worker_id=i, cores=c) for i, c in enumerate(cores)]
        for worker in workers:
            kernel.register_worker(worker)
        assert kernel.earliest_free_worker() == _scan_earliest(kernel)

        for op in ops:
            worker = workers[op[1] % len(workers)]
            if op[0] == "occupy" and worker.alive:
                kernel.run_on_earliest_slot(worker, not_before=op[2],
                                            duration=op[3])
            elif op[0] == "set":
                kernel.set_slot_free_time(worker, op[2] % worker.cores, op[3])
            elif op[0] == "kill":
                kernel.kill_worker(worker)
            elif op[0] == "restart":
                kernel.restart_worker(worker, at=op[2])
            elif op[0] == "reset":
                kernel.reset_worker(worker)
            assert kernel.earliest_free_worker() == _scan_earliest(kernel)

    def test_all_dead_returns_none(self):
        kernel = SimKernel()
        worker = Worker(worker_id=0, cores=2)
        kernel.register_worker(worker)
        kernel.kill_worker(worker)
        assert kernel.earliest_free_worker() is None
        assert _scan_earliest(kernel) is None
