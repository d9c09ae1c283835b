"""SimKernel: the discrete-event simulation core and single time authority.

The engine charges *simulated* time for every physical effect (CPU work,
disk and network transfers, GC pauses, task launches).  Simulated time is
kept in floating-point **seconds** and owned by exactly one place — the
kernel in this module.  Three layers build on each other:

``SimClock``
    A monotonically advancing clock.  Components read it to timestamp
    metrics; only the kernel moves it.

``EventQueue``
    A priority queue of timestamped callbacks with deterministic
    tie-breaking: events at the same instant fire in insertion order
    (a global sequence number breaks ties).  Popping an event advances
    the shared clock to the event's time.

``SimKernel``
    The queue plus everything else that used to mutate time-indexed
    state from the outside: the worker slot ledger (every write to
    ``Worker.slot_free_times`` goes through kernel APIs, which also
    maintain a cached earliest-free-slot index per worker) and worker
    kill/restart.

Job arrivals and armed failures share the heap; ``run_all`` drains
every event that was not cancelled.

The task scheduler remains an *analytic* executor: it computes task
start/finish times against per-slot free times rather than scheduling
one event per task, which is equivalent and much faster for the job
shapes in the paper (stages of independent tasks).  Crucially, all its
slot mutations are kernel transactions, so there is a single consistent
ledger of "when is this core busy" that any component can query at any
simulated instant.

Determinism: given the same seed and configuration, the kernel's event
order is a pure function of (time, sequence number), both derived
deterministically from the simulation itself — no wall-clock, no id()
ordering, no set iteration.  ``docs/SIMULATION.md`` documents the
guarantee and its test (`tests/cluster/test_determinism.py`).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .worker import Worker

#: The single time-comparison tolerance of the simulator (seconds).
#: Used for "is this slot free yet", "did the clock move backwards",
#: slot-boundary merging in the observability layer, and the scheduler's
#: arithmetic guards.  One epsilon, one module — callers import it from
#: here instead of scattering magic 1e-9/1e-12 constants.
TIME_EPS = 1e-9


class SimClock:
    """A monotonically advancing simulated clock (seconds).

    Only the kernel module mutates the clock; everything else reads
    ``now`` (enforced by ``tests/cluster/test_kernel_authority.py``).
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at negative time: {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> float:
        """Move the clock forward to absolute time ``t``.

        Moving backwards is a programming error and raises ``ValueError``;
        advancing to the current time is a no-op.
        """
        if t < self._now - TIME_EPS:
            raise ValueError(f"clock cannot move backwards: {t} < {self._now}")
        self._now = max(self._now, t)
        return self._now

    def advance_by(self, dt: float) -> float:
        """Move the clock forward by ``dt`` seconds and return the new time."""
        if dt < 0:
            raise ValueError(f"cannot advance by negative duration: {dt}")
        self._now += dt
        return self._now

    def reset(self, t: float = 0.0) -> None:
        """Reset the clock (used between independent experiments)."""
        self._now = float(t)


# Heap entries are plain lists, not dataclass instances: the dispatch
# loop is the simulator's hottest path and attribute access on a
# dataclass (descriptor lookup per field) measurably dominates it.  A
# list compares elementwise — ``[time, seq, ...]`` orders by time with
# the globally unique sequence number breaking ties, so comparison never
# reaches the callback slot.  Index constants below are the "schema".
_TIME = 0
_SEQ = 1
_CALLBACK = 2
_CANCELLED = 3
_FIRED = 4


class EventHandle:
    """Handle returned by :meth:`EventQueue.schedule`, allows cancellation."""

    __slots__ = ("_event", "_queue")

    def __init__(self, event: list, queue: "EventQueue") -> None:
        self._event = event
        self._queue = queue

    def cancel(self) -> None:
        event = self._event
        if not event[_CANCELLED]:
            event[_CANCELLED] = True
            if not event[_FIRED]:
                # Still on the heap: it will be swept lazily.
                self._queue._cancelled_in_heap += 1

    @property
    def cancelled(self) -> bool:
        return self._event[_CANCELLED]

    @property
    def time(self) -> float:
        return self._event[_TIME]


class EventQueue:
    """Priority queue of timestamped callbacks sharing a :class:`SimClock`.

    Events scheduled for the same instant fire in insertion order (the
    global sequence number is the deterministic tie-break).
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._heap: List[list] = []
        self._seq = itertools.count()
        #: Cancelled events still sitting on the heap, swept lazily.
        self._cancelled_in_heap = 0
        #: True while run_until/run_all is popping events; lets
        #: :meth:`SimKernel.pump` no-op instead of re-entering the loop.
        self._running = False

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled_in_heap

    def schedule(self, time: float, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to run at absolute simulated ``time``."""
        if time < self.clock.now - TIME_EPS:
            raise ValueError(
                f"cannot schedule event in the past: {time} < now={self.clock.now}"
            )
        event = [time, next(self._seq), callback, False, False]
        heapq.heappush(self._heap, event)
        return EventHandle(event, self)

    def schedule_many(
        self,
        arrivals: "List[Tuple[float, Callable[[], Any]]]",
    ) -> List[EventHandle]:
        """Bulk-schedule ``(time, callback)`` pairs; returns their handles.

        Semantically identical to calling :meth:`schedule` once per pair
        in order — sequence numbers are assigned in list order, so the
        delivery order is exactly the same.  The difference is cost: a
        large batch (a job-arrival flood) is appended and
        re-heapified in one O(heap + batch) pass instead of paying
        O(batch x log heap) pushes.
        """
        now = self.clock.now
        floor = now - TIME_EPS
        seq = self._seq
        entries: List[list] = []
        for time, callback in arrivals:
            if time < floor:
                raise ValueError(
                    f"cannot schedule event in the past: {time} < now={now}"
                )
            entries.append([time, next(seq), callback, False, False])
        heap = self._heap
        if len(entries) > 4 and len(entries) * 2 >= len(heap):
            # Batch dominates the heap: one heapify beats per-item pushes.
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            for entry in entries:
                heapq.heappush(heap, entry)
        return [EventHandle(entry, self) for entry in entries]

    def schedule_in(self, delay: float, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative: {delay}")
        return self.schedule(self.clock.now + delay, callback)

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        if self._cancelled_in_heap:
            self._drop_cancelled()
        return self._heap[0][_TIME] if self._heap else None

    def run_until(self, end_time: float) -> int:
        """Run events with ``time <= end_time``; return how many ran.

        The clock is left at ``end_time`` (or further, if a callback
        advanced it) even when the queue drains early.

        This is the simulator's hottest loop, so it pops and dispatches
        with local bindings only.  An event may fire late when the clock
        was advanced past its timestamp by other components (the
        virtual-time task scheduler does this); the clock never moves
        backwards.
        """
        count = 0
        prev, self._running = self._running, True
        clock = self.clock
        heappop = heapq.heappop
        try:
            while True:
                if self._cancelled_in_heap:
                    self._drop_cancelled()
                heap = self._heap  # a sweep may rebuild the list
                if not heap:
                    break
                event = heap[0]
                t = event[_TIME]
                if t > end_time:
                    break
                heappop(heap)
                event[_FIRED] = True
                if t > clock._now:
                    clock._now = t
                event[_CALLBACK]()
                count += 1
        finally:
            self._running = prev
        if end_time > clock._now:
            clock._now = end_time
        return count

    def run_all(self, max_events: int = 10_000_000) -> int:
        """Drain every pending event; guard against runaway loops."""
        count = 0
        prev, self._running = self._running, True
        clock = self.clock
        heappop = heapq.heappop
        try:
            while True:
                if self._cancelled_in_heap:
                    self._drop_cancelled()
                heap = self._heap
                if not heap:
                    break
                event = heappop(heap)
                event[_FIRED] = True
                t = event[_TIME]
                if t > clock._now:
                    clock._now = t
                event[_CALLBACK]()
                count += 1
                if count >= max_events:
                    raise RuntimeError(
                        f"event queue did not drain after {max_events} events")
        finally:
            self._running = prev
        return count

    def _drop_cancelled(self) -> None:
        """Sweep cancelled events: pop from the top, and — once cancelled
        entries dominate the heap — rebuild it in one O(n) pass so the
        cost amortizes over the steps between sweeps instead of growing
        with stale-entry depth."""
        heap = self._heap
        dropped = 0
        while heap and heap[0][_CANCELLED]:
            heapq.heappop(heap)
            dropped += 1
        remaining = self._cancelled_in_heap - dropped
        if remaining > 64 and remaining * 2 >= len(heap):
            live = [e for e in heap if not e[_CANCELLED]]
            heapq.heapify(live)
            self._heap = live
            remaining = 0
        self._cancelled_in_heap = remaining


class SimKernel(EventQueue):
    """The single authority over simulated time and worker slot state.

    On top of the event heap this adds:

    * **Time authority** — :attr:`now`, :meth:`advance_to`,
      :meth:`advance_by` and :meth:`pump`.  Components that used to poke
      the clock directly go through these; ``pump`` fires every event due
      at or before the current frontier and is safe to call from inside a
      running event loop (it no-ops, the outer loop is already pumping).
    * **The worker slot ledger** — every mutation of
      ``Worker.slot_free_times`` (occupy, overwrite, kill, restart)
      is a kernel transaction, which lets the kernel keep a
      cached ``(free_time, slot)`` minimum per worker.  The cache turns
      the scheduler's hot earliest-free-slot query from O(cores) into
      O(1) amortized and ``Cluster.earliest_free_worker`` from
      O(workers x cores) into O(workers).
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        super().__init__(clock)
        self._workers: Dict[int, "Worker"] = {}
        #: worker_id -> (free_time, slot) of its earliest-free slot, or
        #: ``None`` when dirty (recomputed lazily on next query).
        self._earliest: Dict[int, Optional[Tuple[float, int]]] = {}
        #: Inter-worker heap of ``(free_time, worker_id)`` lower bounds:
        #: every alive registered worker always has at least one entry
        #: whose time is <= its true earliest free time.  Occupancy only
        #: *raises* free times, so the hot path (``occupy_slot``) never
        #: touches the heap; mutations that can lower a worker's minimum
        #: (register, explicit set, restart, reset) push eagerly, and
        #: the query pops/refreshes stale entries lazily.  This turns
        #: the scheduler's "globally earliest-free slot" pick from
        #: O(workers) per launch into O(log workers) amortized.
        self._free_heap: List[Tuple[float, int]] = []

    # ---- time authority -----------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    def advance_to(self, t: float) -> float:
        """Advance the clock to absolute time ``t`` (see SimClock)."""
        return self.clock.advance_to(t)

    def advance_by(self, dt: float) -> float:
        """Advance the clock by ``dt`` seconds."""
        return self.clock.advance_by(dt)

    def pump(self) -> int:
        """Fire every event due at or before the current frontier.

        No-ops (returns 0) when called re-entrantly from inside a running
        event loop — the outer ``run_until``/``run_all`` is already
        delivering due events, and recursing would nest job execution.
        """
        if self._running:
            return 0
        return self.run_until(self.clock.now)

    def reset(self, t: float = 0.0) -> None:
        """Reset clock and heap between independent experiments.

        Pending events are discarded; registered workers stay
        registered (reset their slots with :meth:`reset_worker`).
        """
        self.clock.reset(t)
        self._heap.clear()
        self._cancelled_in_heap = 0
        self._running = False

    # ---- the worker slot ledger ---------------------------------------------

    def register_worker(self, worker: "Worker") -> None:
        """Attach a worker to the kernel's slot ledger, adopting its
        current slot state as-is."""
        self._workers[worker.worker_id] = worker
        worker._kernel = self
        self._earliest[worker.worker_id] = None
        heapq.heappush(self._free_heap,
                       (min(worker.slot_free_times), worker.worker_id))

    def occupy_slot(self, worker: "Worker", slot: int, start: float,
                    duration: float) -> float:
        """Charge ``duration`` of occupancy to ``slot`` starting no
        earlier than ``start``; return the finish time."""
        if not worker.alive:
            raise RuntimeError(f"worker {worker.worker_id} is dead")
        if duration < 0:
            raise ValueError(f"task duration must be non-negative: {duration}")
        begin = max(start, worker.slot_free_times[slot])
        finish = begin + duration
        worker.slot_free_times[slot] = finish
        cached = self._earliest.get(worker.worker_id)
        if cached is not None and cached[1] == slot:
            # The cached minimum just moved; recompute lazily.
            self._earliest[worker.worker_id] = None
        return finish

    def run_on_earliest_slot(self, worker: "Worker", not_before: float,
                             duration: float) -> Tuple[float, float]:
        """Occupy the worker's earliest-free slot; returns (start, finish)."""
        slot, free = self.earliest_free_slot(worker)
        begin = max(not_before, free)
        return begin, self.occupy_slot(worker, slot, begin, duration)

    def set_slot_free_time(self, worker: "Worker", slot: int, t: float) -> None:
        """Overwrite one slot's free time (tests preload load shapes
        through it)."""
        worker.slot_free_times[slot] = t
        if worker.worker_id in self._earliest:
            self._earliest[worker.worker_id] = None
            # The write may have lowered the worker's minimum: keep the
            # inter-worker heap's lower-bound invariant.
            heapq.heappush(self._free_heap, (t, worker.worker_id))

    def earliest_free_slot(self, worker: "Worker") -> Tuple[int, float]:
        """``(slot, free_time)`` of the worker's earliest-free slot —
        O(1) when the cached minimum is clean."""
        cached = self._earliest.get(worker.worker_id)
        if cached is None:
            times = worker.slot_free_times
            slot = min(range(worker.cores), key=times.__getitem__)
            cached = (times[slot], slot)
            if worker.worker_id in self._earliest:
                self._earliest[worker.worker_id] = cached
        return cached[1], cached[0]

    def earliest_free_time(self, worker: "Worker") -> float:
        return self.earliest_free_slot(worker)[1]

    # ---- worker lifecycle ---------------------------------------------------

    def kill_worker(self, worker: "Worker") -> None:
        """Fail a worker: running tasks are lost, disk state survives a
        restart but cached blocks do not (the block manager tracks those)."""
        worker.alive = False
        worker.slot_free_times = [float("inf")] * worker.cores
        if worker.worker_id in self._earliest:
            self._earliest[worker.worker_id] = (float("inf"), 0)

    def restart_worker(self, worker: "Worker",
                       at: Optional[float] = None) -> None:
        """Bring a worker back with cold caches; slots open at ``at``
        (default: the current frontier)."""
        at = self.clock.now if at is None else at
        worker.alive = True
        worker.slot_free_times = [at] * worker.cores
        if worker.worker_id in self._earliest:
            self._earliest[worker.worker_id] = (at, 0)
            heapq.heappush(self._free_heap, (at, worker.worker_id))

    def reset_worker(self, worker: "Worker", at: float = 0.0) -> None:
        """Return a worker's slot state to pristine (between experiments)."""
        worker.alive = True
        worker.slot_free_times = [at] * worker.cores
        if worker.worker_id in self._earliest:
            self._earliest[worker.worker_id] = (at, 0)
            heapq.heappush(self._free_heap, (at, worker.worker_id))

    def invalidate(self, worker: "Worker") -> None:
        """Mark a worker's cached minimum dirty.  Only needed after an
        out-of-band mutation of ``slot_free_times`` — which production
        code must never do (the authority test greps for it)."""
        if worker.worker_id in self._earliest:
            self._earliest[worker.worker_id] = None
            heapq.heappush(self._free_heap,
                           (min(worker.slot_free_times), worker.worker_id))

    def earliest_free_worker(self) -> Optional[Tuple[int, int, float]]:
        """``(worker_id, slot, free_time)`` of the globally earliest-free
        slot among alive registered workers, or ``None`` when none is.

        Lazy heap query: dead workers' entries are discarded, stale
        lower bounds are refreshed in place (``heapreplace``) until the
        top entry matches its worker's true cached minimum.  Ties on
        free time resolve to the smallest worker id — exactly the
        ordering of the O(workers) scan this replaces."""
        heap = self._free_heap
        workers = self._workers
        while heap:
            t, wid = heap[0]
            worker = workers[wid]
            if not worker.alive:
                heapq.heappop(heap)
                continue
            slot, cur = self.earliest_free_slot(worker)
            if cur != t:
                heapq.heapreplace(heap, (cur, wid))
                continue
            return wid, slot, t
        return None
