"""Task scheduling: delay scheduling over simulated executor slots.

The scheduler adapts Spark's delay scheduling [Zaharia et al., EuroSys'10]
to the virtual-time model: every worker exposes per-slot *free times*;
the scheduler repeatedly takes the globally earliest-free slot and decides
what (if anything) to launch on it.

* If a pending task prefers that worker (its input is cached there, or
  the LocalityManager pins its collection partition there), it launches
  ``PROCESS_LOCAL``.
* Otherwise the taskset must have waited at least ``locality_wait``
  seconds since its last launch before any task may run ``ANY`` — the
  delay-scheduling rule.  When that happens, the *remote policy* picks the
  executor: the default takes the offered (earliest-free) slot; Stark's
  Minimum-Contention-First policy (§III-C3, Algorithm 1) instead prefers
  executors caching the fewest unique collection partitions.
* If no task may launch yet, the slot idles until either the wait expires
  or a preferred worker frees up.

Slot free-times persist across jobs, so open-loop arrival drivers get
queueing behaviour (Figs 19/20) for free.

One launch costs O(log) in the pending and running sets, because the
loop reads indexes instead of re-deriving them from the pending list:

* **Alive membership is fixed for a task set.**  Kill, restart and
  decommission reach the cluster as kernel events, and the kernel is
  pumped only at ``run_job`` boundaries, so they land between task sets:
  each task's alive preferred workers are computed once per task set.
* **Pending tasks sit in per-worker buckets** (:class:`_Pending`),
  retries in a ``not_before`` heap, running attempts in a ``(finish,
  task_id)`` heap.
* **Workers sit in a table** ordered ``(max(free, idle bump), wid,
  slot)`` — the kernel's free-slot heap order — refreshed only for the
  worker a launch, an idle bump, a bump pop or a speculation truncate
  touched.  Falls are announced: ``truncate`` lowers a slot's free time,
  so it refreshes its worker like every other writer.

On top of delay scheduling sits the straggler/fault layer
(``docs/FAULT_TOLERANCE.md``):

* **Speculative execution** — once ``speculation_quantile`` of the
  taskset has finished, a task running longer than
  ``speculation_multiplier ×`` the median successful duration is cloned
  onto the best non-original executor; the first copy to finish wins,
  the loser is cancelled (its slot is reclaimed from the cancellation
  point, but both slots' time up to it stays charged).
* **Retry with backoff + blacklisting** — an attempt pre-sampled to fail
  charges a fraction of its work, then re-enters the queue after
  exponential backoff with jitter; executors accumulating failures trip
  the per-stage and app-level blacklists (timed expiry).  Retries avoid
  workers the task already failed on and blacklisted executors — except
  as a last resort: when *every* offered worker is excluded, the task
  launches anyway rather than deadlock (``max_task_failures`` still
  bounds the attempts).
* **Fetch-failure escalation** — a ``FetchFailedError`` aborts the
  taskset and propagates to the DAG scheduler for parent-stage
  resubmission.

With the default config (no speculation, zero failure probabilities,
homogeneous workers) every code path reduces to the plain
delay-scheduling behaviour above, launch for launch.
"""

from __future__ import annotations

import heapq
import itertools
import statistics
from typing import (Collection, Dict, List, Optional, Protocol, Sequence, Set,
                    Tuple, TYPE_CHECKING)

from ..obs.events import (Event, ExecutorBlacklisted, FetchFailed, TaskRetried,
                          TaskSpeculated, task_events_from_metrics)
from ..cluster.events import TIME_EPS
from .fault_tolerance import BlacklistTracker, FetchFailedError, retry_backoff
from .metrics import TaskMetrics
from .task import Task

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.worker import Worker
    from .context import StarkContext

PROCESS_LOCAL = "PROCESS_LOCAL"
ANY = "ANY"

class RemotePolicy(Protocol):
    """Chooses the executor for a task launching at locality level ANY."""

    def choose_worker(
        self, context: "StarkContext", task: Task, offers: Sequence[int], now: float
    ) -> int:
        """Return a worker id from ``offers`` (all alive)."""
        ...


class DefaultRemotePolicy:
    """Spark's behaviour: all remote workers are equal.

    The earliest-free worker wins, but ties are broken *randomly*: on a
    real cluster, which executor's resource offer reaches the driver
    first is a race, which is why Spark "randomly scatters partitions of
    independent RDDs into servers" (§III-A).  Deterministic tie-breaking
    would fabricate accidental co-locality that real Spark does not have.
    """

    def choose_worker(
        self, context: "StarkContext", task: Task, offers: Sequence[int], now: float
    ) -> int:
        cluster = context.cluster
        free = [(w, cluster.get_worker(w).earliest_free_time()) for w in offers]
        # Workers idle *right now* are interchangeable: whichever executor's
        # offer reaches the driver first wins, and that ordering carries no
        # information.  Picking by historical free time instead would replay
        # the same placement for every identically-shaped job, fabricating
        # co-locality across a dataset collection.
        idle = [w for w, t in free if t <= now + TIME_EPS]
        if idle:
            return cluster.rng.choice(idle)
        earliest = min(t for _, t in free)
        return cluster.rng.choice(
            [w for w, t in free if t <= earliest + TIME_EPS])


class _TaskState:
    """Per logical task bookkeeping across its attempts."""

    __slots__ = ("task", "prefs", "attempts", "failures", "finished",
                 "speculated", "failed_workers", "live")

    def __init__(self, task: Task, prefs: List[int]) -> None:
        self.task = task
        self.prefs = prefs       # alive preferred workers (fixed per task set)
        self.attempts = 0        # attempts launched so far
        self.failures = 0        # failed attempts so far
        self.finished = False    # some attempt succeeded
        self.speculated = False  # a speculative copy was launched
        self.failed_workers: Set[int] = set()
        self.live = 0            # attempts currently running


class _Attempt:
    """One launched task attempt (execution already simulated)."""

    __slots__ = ("state", "metrics", "worker_id", "slot", "start", "finish",
                 "speculative")

    def __init__(self, state: _TaskState, metrics: TaskMetrics,
                 worker_id: int, slot: int, start: float, finish: float,
                 speculative: bool) -> None:
        self.state, self.metrics, self.speculative = state, metrics, speculative
        self.worker_id, self.slot = worker_id, slot
        self.start, self.finish = start, finish


class _PendingEntry:
    """A task (attempt) waiting to launch, not before ``not_before``."""

    __slots__ = ("state", "not_before", "seq", "ready")

    def __init__(self, state: _TaskState, not_before: float) -> None:
        self.state = state
        self.not_before = not_before
        self.seq = 0         # arrival order in the pending list
        self.ready = False   # indexed in the ready buckets right now


class _Pending:
    """The pending list of one task set, indexed for delay scheduling.

    ``entries`` holds every entry in arrival order (``seq``).  The ones
    *ready* at the offered time are also rows of lazy heaps (rows of
    launched or demoted entries drop out when they surface): ``local[w]``
    per alive preferred worker keyed ``(len(prefs), partition, seq)``, most
    constrained first, and ``anywhere`` keyed ``(has prefs, partition,
    seq)``, tasks that gain nothing from waiting first.  ``seq`` makes each
    key total, so ties resolve as a scan of the list would.  Retries wait
    in ``backoff``; offered times are not monotone (popping an idle bump
    can bring an earlier slot back), so a promoted retry is demoted when a
    later offer comes before its ``not_before``."""

    def __init__(self) -> None:
        self.entries: Dict[int, _PendingEntry] = {}
        self.local: Dict[int, List[tuple]] = {}
        self.local_count: Dict[int, int] = {}
        self.anywhere: List[tuple] = []
        self.ready_count = 0
        self.preferred_count = 0
        self.backoff: List[Tuple[float, int, _PendingEntry]] = []
        self.promoted: List[Tuple[float, int, _PendingEntry]] = []
        self._seq = 0

    def add(self, entry: _PendingEntry, ready: bool) -> None:
        self._seq += 1
        entry.seq = self._seq
        self.entries[entry.seq] = entry
        if ready:
            self._index(entry)
        else:
            heapq.heappush(self.backoff, (entry.not_before, entry.seq, entry))

    def remove(self, entry: _PendingEntry) -> None:
        self._unindex(entry)
        del self.entries[entry.seq]

    def promote(self, now: float) -> None:
        """Make the ready buckets hold exactly the entries ready at ``now``."""
        limit = now + TIME_EPS
        promoted, backoff = self.promoted, self.backoff
        while promoted and -promoted[0][0] > limit:
            _, seq, entry = heapq.heappop(promoted)
            if entry.ready:
                self._unindex(entry)
                heapq.heappush(backoff, (entry.not_before, seq, entry))
        while backoff and backoff[0][0] <= limit:
            not_before, seq, entry = heapq.heappop(backoff)
            self._index(entry)
            heapq.heappush(promoted, (-not_before, seq, entry))

    def pick_local(self, worker_id: int) -> Optional[_PendingEntry]:
        """The ready entry preferring ``worker_id`` with the fewest
        alternatives, skipping tasks that already failed there."""
        if not self.local_count.get(worker_id):
            return None
        heap = self.local[worker_id]
        entry = _top(heap)
        if worker_id not in entry.state.failed_workers:
            return entry
        rows = [r for r in heap
                if r[-1].ready and worker_id not in r[-1].state.failed_workers]
        return min(rows)[-1] if rows else None

    def _index(self, entry: _PendingEntry) -> None:
        entry.ready = True
        self.ready_count += 1
        prefs = entry.state.prefs
        partition = entry.state.task.partition
        heapq.heappush(self.anywhere,
                       (bool(prefs), partition, entry.seq, entry))
        if prefs:
            self.preferred_count += 1
            row = (len(prefs), partition, entry.seq, entry)
            for w in dict.fromkeys(prefs):
                heapq.heappush(self.local.setdefault(w, []), row)
                self.local_count[w] = self.local_count.get(w, 0) + 1

    def _unindex(self, entry: _PendingEntry) -> None:
        entry.ready = False
        self.ready_count -= 1
        prefs = entry.state.prefs
        if prefs:
            self.preferred_count -= 1
            for w in dict.fromkeys(prefs):
                self.local_count[w] -= 1


def _top(heap: List[tuple]) -> _PendingEntry:
    """The smallest row's entry, dropping rows of unindexed entries."""
    while not heap[0][-1].ready:
        heapq.heappop(heap)
    return heap[0][-1]


class TaskScheduler:
    """Assigns tasksets to executor slots under delay scheduling."""

    def __init__(self, context: "StarkContext", locality_wait: float = 0.1,
                 remote_policy: Optional[RemotePolicy] = None) -> None:
        if locality_wait < 0:
            raise ValueError(f"locality_wait must be non-negative: {locality_wait}")
        self.context = context
        self.locality_wait = locality_wait
        self.remote_policy: RemotePolicy = remote_policy or DefaultRemotePolicy()
        self._blacklist_tracker: Optional[BlacklistTracker] = None

    @property
    def blacklist(self) -> BlacklistTracker:
        """App-lifetime blacklist tracker (lazy; shared across tasksets)."""
        if self._blacklist_tracker is None:
            config = self.context.config
            self._blacklist_tracker = BlacklistTracker(
                max_failures_per_executor_stage=config.max_failures_per_executor_stage,
                max_failures_per_executor=config.max_failures_per_executor,
                blacklist_timeout=config.blacklist_timeout)
        return self._blacklist_tracker

    # ---- public API ----------------------------------------------------------

    def run_taskset(self, tasks: Sequence[Task], submit_time: float) -> float:
        """Schedule and execute ``tasks``; return the stage finish time.

        Each launch executes the task immediately (mutating caches and map
        outputs), so later launches in the same stage observe earlier
        tasks' side effects — matching the in-order reality of a cluster.

        Raises :class:`FetchFailedError` when an attempt cannot fetch a
        parent map output — the DAG scheduler handles stage resubmission.
        Raises ``RuntimeError`` when one task exhausts
        ``max_task_failures`` attempts.
        """
        if not tasks:
            return submit_time
        return _TaskSetRun(self, tasks, submit_time).run()

    def _alive_preferred(self, task: Task, alive: Collection[int]) -> List[int]:
        return [w for w in task.preferred_workers if w in alive]


class _TaskSetRun:
    """The state of one ``run_taskset`` call and the delay-scheduling loop
    over it.  Speculation, retry and blacklist handling are methods the
    loop reaches only when those features are on."""

    def __init__(self, scheduler: TaskScheduler, tasks: Sequence[Task],
                 submit_time: float) -> None:
        self.scheduler = scheduler
        self.context = context = scheduler.context
        self.cluster = context.cluster
        self.kernel = self.cluster.kernel
        self.config = context.config
        self.stage_id = tasks[0].stage.stage_id
        self.submit_time = submit_time
        self.total = len(tasks)
        # Fixed for the task set (module docstring): kills, restarts and
        # decommissions land between task sets, never inside one.
        self.alive = self.cluster.alive_worker_ids()
        alive = set(self.alive)
        self.pending = _Pending()
        for task in tasks:
            state = _TaskState(task, scheduler._alive_preferred(task, alive))
            self.pending.add(_PendingEntry(state, submit_time), ready=True)
        #: task_id -> attempt in launch order, and the completion heap over
        #: them (a row a truncate superseded no longer matches its finish).
        self.running: Dict[int, _Attempt] = {}
        self.finishes: List[Tuple[float, int, _Attempt]] = []
        self.attempts_log: List[_Attempt] = []
        self.completed_durations: List[float] = []
        self.finished_count = 0
        # Aux events (speculation/retry/blacklist) buffered alongside the
        # task pairs and flushed in one time-sorted stream at the end —
        # out-of-order attempt completions would otherwise violate the
        # per-stage launch-monotonicity invariant of the event log.
        self.aux_events: List[Tuple[float, int, Event]] = []
        self.next_seq = itertools.count(1).__next__
        # Driver dispatch is serial: each launched task costs the driver a
        # slice of time before it can hit an executor (right side of Fig 7).
        self.driver_free = self.last_launch = submit_time
        # The worker table: each alive worker's earliest-free slot, and the
        # offer heap of ``(max(free, bump), wid, slot)`` rows, ``offer_key``
        # naming each worker's current one.
        self.bumps: Dict[int, float] = {}
        self.free: Dict[int, Tuple[float, int]] = {}
        self.offer_key: Dict[int, Tuple[float, int, int]] = {}
        self.offers: List[Tuple[float, int, int]] = []
        for wid in self.alive:
            self.refresh(wid)

    # ---- the delay-scheduling loop -----------------------------------------

    def run(self) -> float:
        if not self.alive:
            self.abort(RuntimeError("no alive workers; cannot run taskset"))
        scheduler = self.scheduler
        pending = self.pending
        while pending.entries or self.running:
            if not pending.entries:
                # Everything launched: speculate on stragglers, otherwise
                # drain the next completion.
                if not (self.config.speculation and self.speculate()):
                    self.complete(self.next_finish())
                continue

            offers = self.offers
            while offers[0] != self.offer_key[offers[0][1]]:
                heapq.heappop(offers)
            free, worker_id, _ = offers[0]
            now = max(free, self.submit_time, self.bumps.get(worker_id, 0.0))
            if self.complete(now):
                continue  # retries/blacklist changed the picture: re-pick
            pending.promote(now)
            if not pending.ready_count:
                # Every pending task is backing off: idle this slot until
                # the earliest retry becomes eligible.
                self.bump(worker_id, max(pending.backoff[0][0], now + 1e-6))
                continue
            blacklisted_until = scheduler.blacklist.blacklisted_until(
                worker_id, self.stage_id, now) \
                if scheduler._blacklist_tracker is not None else 0.0
            if blacklisted_until > now:
                # This executor is excluded from offers: idle its slot
                # past the blacklist expiry.
                self.bump(worker_id, max(blacklisted_until, now + 1e-6))
                continue

            entry = pending.pick_local(worker_id)
            locality, chosen_worker = PROCESS_LOCAL, worker_id
            if entry is None:
                if (now - self.last_launch < scheduler.locality_wait - TIME_EPS
                        and pending.preferred_count):
                    # Idle this slot until something can change: the wait
                    # expiring, or a preferred worker freeing up.
                    wake = min(self.last_launch + scheduler.locality_wait, min(
                        self.free[w][0] for w, n in pending.local_count.items() if n))
                    self.bump(worker_id, max(wake, now + 1e-6))
                    continue
                entry = _top(pending.anywhere)
                chosen_worker = self.choose_remote(entry.state, now)
                if chosen_worker not in entry.state.prefs:
                    locality = ANY

            pending.remove(entry)
            launch_at = max(now, self.driver_free)
            self.driver_free = launch_at + self.context.cost_model.driver_overhead_per_task
            self.bumps.pop(chosen_worker, None)
            self.launch(entry.state, chosen_worker, launch_at, locality)
            self.last_launch = launch_at

        self.flush_events()
        return max([self.submit_time] + [
            a.finish for a in self.attempts_log if a.metrics.status == "success"])

    def refresh(self, worker_id: int) -> None:
        """Re-read ``worker_id``'s earliest-free slot into the table."""
        slot, free = self.cluster.get_worker(worker_id).earliest_free_slot()
        self.free[worker_id] = (free, slot)
        self.rekey(worker_id)

    def rekey(self, worker_id: int) -> None:
        free, slot = self.free[worker_id]
        key = (max(free, self.bumps.get(worker_id, 0.0)), worker_id, slot)
        self.offer_key[worker_id] = key
        heapq.heappush(self.offers, key)

    def bump(self, worker_id: int, until: float) -> None:
        """Idle ``worker_id`` until ``until`` (bumps only ever rise)."""
        self.bumps[worker_id] = max(self.bumps.get(worker_id, 0.0), until)
        self.rekey(worker_id)

    def choose_remote(self, state: _TaskState, now: float) -> int:
        """The executor for an ANY launch at ``now``: offers are the workers
        with an idle slot (all alive ones when every worker is busy),
        minus those the task failed on and blacklisted ones."""
        scheduler = self.scheduler
        offers = [w for w in self.alive
                  if self.free[w][0] <= now + TIME_EPS] or list(self.alive)
        eligible = [
            w for w in offers
            if w not in state.failed_workers
            and not scheduler.blacklist.is_blacklisted(w, self.stage_id, now)
        ] if state.failed_workers or scheduler._blacklist_tracker is not None \
            else offers
        # Last-resort fallback (documented in docs/FAULT_TOLERANCE.md):
        # when *every* offered worker is excluded — the task failed on all
        # of them, or all are blacklisted — launch anyway rather than
        # deadlock; max_task_failures still bounds the damage.
        return scheduler.remote_policy.choose_worker(
            self.context, state.task, eligible or offers, now)

    # ---- attempts ----------------------------------------------------------

    def launch(self, state: _TaskState, worker_id: int, start: float,
               locality: str, speculative: bool = False) -> _Attempt:
        """Execute one attempt of ``state.task`` on ``worker_id``."""
        context, cluster = self.context, self.cluster
        task = state.task
        attempt_no = state.attempts
        state.attempts += 1
        if attempt_no == 0 and not speculative:
            tm = task.metrics
        else:
            tm = context.metrics.new_attempt_metrics(
                task.metrics, attempt_no, speculative=speculative)
        worker = cluster.get_worker(worker_id)
        p = self.config.task_failure_prob
        will_fail = p > 0 and cluster.rng.random() < p
        try:
            work = task.run(context, worker_id, metrics=tm, commit_effects=not will_fail)
        except FetchFailedError as exc:
            # The attempt died mid-fetch: charge what it did so far,
            # emit its events, and escalate to the DAG scheduler.
            tm.status = "fetch_failed"
            attempt = self.occupy(worker, state, tm, start, tm.work_time(),
                                  locality, speculative)
            exc.failed_at = finish = attempt.finish
            self.aux_events.append((finish, self.next_seq(), FetchFailed(
                time=finish, job_id=tm.job_id, stage_id=tm.stage_id, task_id=tm.task_id,
                shuffle_id=exc.shuffle_id, map_partition=exc.map_partition,
                worker_id=exc.worker_id, reason=exc.reason)))
            self.abort(exc)
        if will_fail:
            # The attempt dies partway through: charge a fraction of
            # the full run (nothing durable was committed).
            tm.scale_charges(0.25 + 0.5 * cluster.rng.random())
            work = tm.work_time()
            tm.status = "failed"
        attempt = self.occupy(worker, state, tm, start, work, locality, speculative)
        state.live += 1
        self.running[tm.task_id] = attempt
        heapq.heappush(self.finishes, (attempt.finish, tm.task_id, attempt))
        # Signal the replication manager (§III-C3): a remote launch
        # means a hotspot collection partition or executor contention.
        if locality == ANY:
            context.on_remote_launch(task, worker_id, attempt.start)
        return attempt

    def occupy(self, worker: "Worker", state: _TaskState, tm: TaskMetrics, start: float,
               work: float, locality: str, speculative: bool) -> _Attempt:
        """Charge ``work`` to ``worker``'s earliest-free slot from
        ``start`` and log the attempt."""
        free, slot = self.free[worker.worker_id]
        begin = max(start, free)
        wall = worker.wall_duration(begin, work)
        tm.straggler_time += wall - work
        finish = self.kernel.occupy_slot(worker, slot, begin, wall)
        self.refresh(worker.worker_id)
        tm.locality = locality
        tm.start_time, tm.finish_time = begin, finish
        attempt = _Attempt(state, tm, worker.worker_id, slot, begin, finish, speculative)
        self.attempts_log.append(attempt)
        return attempt

    def next_finish(self) -> float:
        finishes = self.finishes
        while finishes[0][0] != finishes[0][2].finish:
            heapq.heappop(finishes)
        return finishes[0][0]

    def complete(self, up_to: float) -> bool:
        """Resolve attempts finishing by ``up_to``; True if the
        scheduling state changed (retries queued, blacklist trips)."""
        finishes, changed = self.finishes, False
        while finishes and finishes[0][0] <= up_to + TIME_EPS:
            finish, task_id, a = heapq.heappop(finishes)
            if finish != a.finish:
                continue  # superseded by a truncate
            del self.running[task_id]
            state = a.state
            state.live -= 1
            status = a.metrics.status
            if status == "success":
                if not state.finished:
                    state.finished = True
                    self.finished_count += 1
                    self.completed_durations.append(a.metrics.duration)
            elif status == "failed":  # a "killed" loser needs nothing
                changed = self.fail(a) or changed
        return changed

    def fail(self, a: _Attempt) -> bool:
        """Account a failed attempt; True if it tripped a blacklist or
        queued a retry."""
        config, stage_id, state = self.config, self.stage_id, a.state
        state.failures += 1
        state.failed_workers.add(a.worker_id)
        changed = False
        for wid, scope, failures, until in self.scheduler.blacklist \
                .record_failure(a.worker_id, stage_id, a.finish):
            self.aux_events.append((a.finish, self.next_seq(), ExecutorBlacklisted(
                time=a.finish, worker_id=wid, stage_id=scope,
                failures=failures, until=until)))
            changed = True
        if state.finished or state.live > 0:
            # Another attempt already covers this task.
            return changed
        if state.failures >= config.max_task_failures:
            self.abort(RuntimeError(
                f"task {a.metrics.task_id} (stage {stage_id}, "
                f"partition {a.metrics.partition}) failed "
                f"{state.failures} times; aborting job"))
        jitter_rand = self.cluster.rng.random() \
            if config.task_retry_jitter > 0 else 0.0
        backoff = retry_backoff(
            config.task_retry_backoff, state.failures,
            config.task_retry_jitter, jitter_rand)
        self.pending.add(_PendingEntry(state, a.finish + backoff), ready=False)
        self.aux_events.append((a.finish, self.next_seq(), TaskRetried(
            time=a.finish, job_id=a.metrics.job_id,
            stage_id=stage_id, task_id=a.metrics.task_id,
            partition=a.metrics.partition, worker_id=a.worker_id,
            attempt=a.metrics.attempt, backoff=backoff,
            reason="task attempt failed")))
        return True

    # ---- speculation -------------------------------------------------------

    def speculate(self) -> bool:
        """Launch at most one due speculative copy; True if launched."""
        config, stage_id = self.config, self.stage_id
        if self.finished_count + TIME_EPS < config.speculation_quantile * self.total \
                or not self.completed_durations:
            return False
        median = statistics.median(self.completed_durations)
        threshold = config.speculation_multiplier * median
        next_finish = self.next_finish()
        free = self.free
        best: Optional[Tuple[float, int, _Attempt, int]] = None
        for a in self.running.values():
            if a.speculative or a.state.speculated or a.state.finished:
                continue
            eligible_at = a.start + threshold
            if eligible_at >= a.finish - TIME_EPS:
                continue  # finishes before it ever looks slow
            candidates = [
                w for w in self.alive
                if w != a.worker_id and w not in a.state.failed_workers
                and not self.scheduler.blacklist.is_blacklisted(w, stage_id, eligible_at)
            ]
            if not candidates:
                continue
            wid = min(candidates, key=lambda w: (max(free[w][0], eligible_at), w))
            launch_time = max(eligible_at, free[wid][0], self.driver_free)
            if launch_time >= a.finish - TIME_EPS:
                continue  # the original wins before the clone starts
            if launch_time > next_finish + TIME_EPS:
                continue  # a completion lands first: re-evaluate then
            if best is None or (launch_time, a.metrics.task_id) < best[:2]:
                best = (launch_time, a.metrics.task_id, a, wid)
        if best is None:
            return False
        launch_time, _, original, worker_id = best
        state = original.state
        state.speculated = True
        launch_at = max(launch_time, self.driver_free)
        self.driver_free = launch_at + self.context.cost_model.driver_overhead_per_task
        locality = PROCESS_LOCAL if worker_id in state.prefs else ANY
        self.aux_events.append((launch_at, self.next_seq(), TaskSpeculated(
            time=launch_at, job_id=original.metrics.job_id,
            stage_id=stage_id, task_id=original.metrics.task_id,
            partition=original.metrics.partition,
            original_worker_id=original.worker_id,
            speculative_worker_id=worker_id,
            running_for=launch_at - original.start,
            median_duration=median)))
        clone = self.launch(state, worker_id, launch_at, locality, speculative=True)
        self.last_launch = launch_at
        # Resolve the race now (virtual time: both finishes are known):
        # when *both* copies will succeed, the first to finish wins and
        # the other is cancelled.  An attempt that is going to fail is
        # never truncated — marking it "killed" would skip its failure
        # path (retry/blacklist accounting) and, worse, truncating a
        # successful clone against a doomed original would leave the task
        # with no successful attempt.
        if clone.metrics.status == "success" \
                and original.metrics.status == "success":
            if clone.finish < original.finish:
                self.truncate(original, clone.finish)
            else:
                self.truncate(clone, original.finish)
        return True

    def truncate(self, loser: _Attempt, at: float) -> None:
        """Cancel ``loser`` at time ``at``: reclaim its slot beyond the
        cancellation point and scale its charges down to it."""
        new_finish = max(loser.start, at)
        if new_finish < loser.finish - TIME_EPS:
            worker = self.cluster.get_worker(loser.worker_id)
            # Only reclaim (and rescale the charges) if nothing was
            # scheduled after it on the same slot — the free time still
            # matches our finish.  Otherwise the slot stays occupied to
            # the original finish, so the charges must too: scaling them
            # down would make charged work_time diverge from occupancy.
            if abs(self.kernel.slot_free_time(worker, loser.slot)
                   - loser.finish) <= 1e-6:
                self.kernel.set_slot_free_time(worker, loser.slot, new_finish)
                self.refresh(loser.worker_id)  # a fall: announce it
                span = loser.finish - loser.start
                loser.metrics.scale_charges(
                    (new_finish - loser.start) / span if span > 0 else 0.0)
                loser.finish = loser.metrics.finish_time = new_finish
                heapq.heappush(self.finishes, (new_finish, loser.metrics.task_id, loser))
        loser.metrics.status = "killed"

    # ---- leaving -----------------------------------------------------------

    def flush_events(self) -> None:
        bus = self.context.event_bus
        if not bus.active:
            return
        stream: List[Tuple[float, int, Event]] = list(self.aux_events)
        for a in sorted(self.attempts_log,
                        key=lambda a: (a.metrics.start_time, a.metrics.task_id)):
            start_event, end_event = task_events_from_metrics(a.metrics)
            seq = self.next_seq()
            stream.append((a.metrics.start_time, seq, start_event))
            stream.append((a.metrics.start_time, seq, end_event))
        stream.sort(key=lambda item: (item[0], item[1]))
        for _, _, event in stream:
            bus.post(event)

    def abort(self, error: Exception) -> None:
        """Discard never-launched tasks' metrics (they emitted no events)
        and flush what did run, then re-raise."""
        for entry in self.pending.entries.values():
            if entry.state.attempts == 0:
                self.context.metrics.discard_task_metrics(entry.state.task.metrics)
        self.flush_events()
        raise error
