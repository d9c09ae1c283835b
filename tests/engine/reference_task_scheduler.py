"""The delay scheduler as it was before its pending side was indexed.

``ReferenceTaskScheduler.run_taskset`` and its helpers are the previous
``repro.engine.task_scheduler`` implementation, copied verbatim: the
closures that rebuild ``ready``, ``entry_by_task`` and ``local_pool``
from the whole pending list on every launch, ``_pick_local_task`` /
``_pick_any_task`` / ``_earliest_preferred_free`` re-deriving
``_alive_preferred`` per candidate, and the ``_earliest_slot`` scan.
``ReferenceDefaultRemotePolicy`` is the remote policy of the same
revision.  The oracle suite (``test_scheduler_oracle.py``) runs a seeded
job under this and under the current scheduler and requires every
decision to match.  Not a test module: nothing here is collected.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.cluster.events import TIME_EPS
from repro.engine.fault_tolerance import FetchFailedError, retry_backoff
from repro.engine.metrics import TaskMetrics
from repro.engine.task import Task
from repro.engine.task_scheduler import ANY, PROCESS_LOCAL, TaskScheduler
from repro.obs.events import (
    Event,
    ExecutorBlacklisted,
    FetchFailed,
    TaskRetried,
    TaskSpeculated,
    task_events_from_metrics,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import StarkContext


class ReferenceDefaultRemotePolicy:
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
        # Workers idle *right now* are interchangeable: whichever executor's
        # offer reaches the driver first wins, and that ordering carries no
        # information.  Picking by historical free time instead would replay
        # the same placement for every identically-shaped job, fabricating
        # co-locality across a dataset collection.
        idle = [w for w in offers if cluster.get_worker(w).has_idle_slot(now)]
        if idle:
            return cluster.rng.choice(idle)
        earliest = min(cluster.get_worker(w).earliest_free_time() for w in offers)
        tied = [
            w for w in offers
            if cluster.get_worker(w).earliest_free_time() <= earliest + TIME_EPS
        ]
        return cluster.rng.choice(tied)


class _TaskState:
    """Per logical task bookkeeping across its attempts."""

    __slots__ = ("task", "attempts", "failures", "finished", "speculated",
                 "failed_workers", "live")

    def __init__(self, task: Task) -> None:
        self.task = task
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
        self.state = state
        self.metrics = metrics
        self.worker_id = worker_id
        self.slot = slot
        self.start = start
        self.finish = finish
        self.speculative = speculative


class _PendingEntry:
    """A task (attempt) waiting to launch, not before ``not_before``."""

    __slots__ = ("state", "not_before")

    def __init__(self, state: _TaskState, not_before: float) -> None:
        self.state = state
        self.not_before = not_before


class ReferenceTaskScheduler(TaskScheduler):
    """``TaskScheduler`` with the previous ``run_taskset`` and helpers."""

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
        context = self.context
        cluster = context.cluster
        kernel = cluster.kernel
        config = context.config
        stage_id = tasks[0].stage.stage_id
        total = len(tasks)

        states = [_TaskState(t) for t in tasks]
        by_task: Dict[int, _TaskState] = {id(s.task): s for s in states}
        pending: List[_PendingEntry] = [
            _PendingEntry(s, submit_time) for s in states]
        running: List[_Attempt] = []
        attempts_log: List[_Attempt] = []
        completed_durations: List[float] = []
        finished_count = 0
        # Aux events (speculation/retry/blacklist) buffered alongside the
        # task pairs and flushed in one time-sorted stream at the end —
        # out-of-order attempt completions would otherwise violate the
        # per-stage launch-monotonicity invariant of the event log.
        aux_events: List[Tuple[float, int, Event]] = []
        seq_counter = [0]

        def next_seq() -> int:
            seq_counter[0] += 1
            return seq_counter[0]

        # Driver dispatch is serial: each launched task costs the driver a
        # slice of time before it can hit an executor (right side of Fig 7).
        driver_free = submit_time
        last_launch = submit_time
        idle_bumps: Dict[int, float] = {}

        def flush_events() -> None:
            bus = context.event_bus
            if not bus.active:
                return
            stream: List[Tuple[float, int, Event]] = list(aux_events)
            for a in sorted(attempts_log,
                            key=lambda a: (a.metrics.start_time,
                                           a.metrics.task_id)):
                start_event, end_event = task_events_from_metrics(a.metrics)
                seq = next_seq()
                stream.append((a.metrics.start_time, seq, start_event))
                stream.append((a.metrics.start_time, seq, end_event))
            stream.sort(key=lambda item: (item[0], item[1]))
            for _, _, event in stream:
                bus.post(event)

        def abort(error: Exception) -> None:
            """Discard never-launched tasks' metrics (they emitted no
            events) and flush what did run, then re-raise."""
            for entry in pending:
                if entry.state.attempts == 0:
                    context.metrics.discard_task_metrics(
                        entry.state.task.metrics)
            flush_events()
            raise error

        def launch_attempt(
            state: _TaskState, worker_id: int, start: float, locality: str,
            speculative: bool = False,
        ) -> _Attempt:
            """Execute one attempt of ``state.task`` on ``worker_id``."""
            task = state.task
            attempt_no = state.attempts
            state.attempts += 1
            if attempt_no == 0 and not speculative:
                tm = task.metrics
            else:
                tm = context.metrics.new_attempt_metrics(
                    task.metrics, attempt_no, speculative=speculative)
            p = config.task_failure_prob
            will_fail = p > 0 and cluster.rng.random() < p
            worker = cluster.get_worker(worker_id)
            try:
                work = task.run(context, worker_id, metrics=tm,
                                commit_effects=not will_fail)
            except FetchFailedError as exc:
                # The attempt died mid-fetch: charge what it did so far,
                # emit its events, and escalate to the DAG scheduler.
                partial = tm.work_time()
                slot, free = worker.earliest_free_slot()
                begin = max(start, free)
                wall = worker.wall_duration(begin, partial)
                tm.straggler_time += wall - partial
                finish = kernel.occupy_slot(worker, slot, begin, wall)
                tm.locality = locality
                tm.start_time, tm.finish_time = begin, finish
                tm.status = "fetch_failed"
                attempts_log.append(_Attempt(
                    state, tm, worker_id, slot, begin, finish, speculative))
                exc.failed_at = finish
                aux_events.append((finish, next_seq(), FetchFailed(
                    time=finish, job_id=tm.job_id, stage_id=tm.stage_id,
                    task_id=tm.task_id, shuffle_id=exc.shuffle_id,
                    map_partition=exc.map_partition,
                    worker_id=exc.worker_id, reason=exc.reason)))
                abort(exc)
            if will_fail:
                # The attempt dies partway through: charge a fraction of
                # the full run (nothing durable was committed).
                fraction = 0.25 + 0.5 * cluster.rng.random()
                tm.scale_charges(fraction)
                work = tm.work_time()
                tm.status = "failed"
            slot, free = worker.earliest_free_slot()
            begin = max(start, free)
            wall = worker.wall_duration(begin, work)
            tm.straggler_time += wall - work
            finish = kernel.occupy_slot(worker, slot, begin, wall)
            tm.locality = locality
            tm.start_time, tm.finish_time = begin, finish
            attempt = _Attempt(state, tm, worker_id, slot, begin, finish,
                               speculative)
            state.live += 1
            running.append(attempt)
            attempts_log.append(attempt)
            # Signal the replication manager (§III-C3): a remote launch
            # means a hotspot collection partition or executor contention.
            if locality == ANY:
                context.on_remote_launch(task, worker_id, begin)
            return attempt

        def truncate(loser: _Attempt, at: float) -> None:
            """Cancel ``loser`` at time ``at``: reclaim its slot beyond
            the cancellation point and scale its charges down to it."""
            new_finish = max(loser.start, at)
            if new_finish < loser.finish - TIME_EPS:
                worker = cluster.get_worker(loser.worker_id)
                # Only reclaim (and rescale the charges) if nothing was
                # scheduled after it on the same slot — the free time
                # still matches our finish.  Otherwise the slot stays
                # occupied to the original finish, so the charges must
                # too: scaling them down would make charged work_time
                # diverge from slot occupancy.
                if abs(kernel.slot_free_time(worker, loser.slot)
                       - loser.finish) <= 1e-6:
                    kernel.set_slot_free_time(worker, loser.slot, new_finish)
                    span = loser.finish - loser.start
                    fraction = (new_finish - loser.start) / span \
                        if span > 0 else 0.0
                    loser.metrics.scale_charges(fraction)
                    loser.finish = new_finish
                    loser.metrics.finish_time = new_finish
            loser.metrics.status = "killed"

        def process_completions(up_to: float) -> bool:
            """Resolve attempts finishing by ``up_to``; True if the
            scheduling state changed (retries queued, blacklist trips)."""
            nonlocal finished_count
            due = sorted(
                (a for a in running if a.finish <= up_to + TIME_EPS),
                key=lambda a: (a.finish, a.metrics.task_id))
            changed = False
            for a in due:
                running.remove(a)
                state = a.state
                state.live -= 1
                status = a.metrics.status
                if status == "success":
                    if not state.finished:
                        state.finished = True
                        finished_count += 1
                        completed_durations.append(a.metrics.duration)
                    continue
                if status != "failed":  # "killed" loser: nothing to do
                    continue
                state.failures += 1
                state.failed_workers.add(a.worker_id)
                for wid, scope, failures, until in self.blacklist \
                        .record_failure(a.worker_id, stage_id, a.finish):
                    aux_events.append((a.finish, next_seq(),
                                       ExecutorBlacklisted(
                                           time=a.finish, worker_id=wid,
                                           stage_id=scope,
                                           failures=failures, until=until)))
                    changed = True
                if state.finished or state.live > 0:
                    # Another attempt already covers this task.
                    continue
                if state.failures >= config.max_task_failures:
                    abort(RuntimeError(
                        f"task {a.metrics.task_id} (stage {stage_id}, "
                        f"partition {a.metrics.partition}) failed "
                        f"{state.failures} times; aborting job"))
                jitter_rand = cluster.rng.random() \
                    if config.task_retry_jitter > 0 else 0.0
                backoff = retry_backoff(
                    config.task_retry_backoff, state.failures,
                    config.task_retry_jitter, jitter_rand)
                pending.append(_PendingEntry(state, a.finish + backoff))
                aux_events.append((a.finish, next_seq(), TaskRetried(
                    time=a.finish, job_id=a.metrics.job_id,
                    stage_id=stage_id, task_id=a.metrics.task_id,
                    partition=a.metrics.partition, worker_id=a.worker_id,
                    attempt=a.metrics.attempt, backoff=backoff,
                    reason="task attempt failed")))
                changed = True
            return changed

        def try_speculate() -> bool:
            """Launch at most one due speculative copy; True if launched."""
            nonlocal driver_free, last_launch
            if finished_count + TIME_EPS < config.speculation_quantile * total:
                return False
            if not completed_durations:
                return False
            alive = cluster.alive_worker_ids()
            median = statistics.median(completed_durations)
            threshold = config.speculation_multiplier * median
            next_finish = min(a.finish for a in running)
            best: Optional[Tuple[float, int, _Attempt, int]] = None
            for a in running:
                if a.speculative or a.state.speculated or a.state.finished:
                    continue
                eligible_at = a.start + threshold
                if eligible_at >= a.finish - TIME_EPS:
                    continue  # finishes before it ever looks slow
                candidates = [
                    w for w in alive
                    if w != a.worker_id
                    and w not in a.state.failed_workers
                    and not self.blacklist.is_blacklisted(
                        w, stage_id, eligible_at)
                ]
                if not candidates:
                    continue
                wid = min(candidates, key=lambda w: (
                    max(cluster.get_worker(w).earliest_free_time(),
                        eligible_at), w))
                launch_time = max(
                    eligible_at,
                    cluster.get_worker(wid).earliest_free_time(),
                    driver_free)
                if launch_time >= a.finish - TIME_EPS:
                    continue  # the original wins before the clone starts
                if launch_time > next_finish + TIME_EPS:
                    continue  # a completion lands first: re-evaluate then
                key = (launch_time, a.metrics.task_id)
                if best is None or key < (best[0], best[1]):
                    best = (launch_time, a.metrics.task_id, a, wid)
            if best is None:
                return False
            launch_time, _, original, worker_id = best
            state = original.state
            state.speculated = True
            launch_at = max(launch_time, driver_free)
            driver_free = launch_at + context.cost_model \
                .driver_overhead_per_task
            locality = PROCESS_LOCAL \
                if worker_id in self._alive_preferred(state.task) else ANY
            aux_events.append((launch_at, next_seq(), TaskSpeculated(
                time=launch_at, job_id=original.metrics.job_id,
                stage_id=stage_id, task_id=original.metrics.task_id,
                partition=original.metrics.partition,
                original_worker_id=original.worker_id,
                speculative_worker_id=worker_id,
                running_for=launch_at - original.start,
                median_duration=median)))
            clone = launch_attempt(state, worker_id, launch_at, locality,
                                   speculative=True)
            last_launch = launch_at
            # Resolve the race now (virtual time: both finishes are
            # known): when *both* copies will succeed, the first to
            # finish wins and the other is cancelled.  An attempt that
            # is going to fail is never truncated — marking it "killed"
            # would skip its failure path (retry/blacklist accounting)
            # and, worse, truncating a successful clone against a doomed
            # original would leave the task with no successful attempt.
            if clone.metrics.status == "success" \
                    and original.metrics.status == "success":
                if clone.finish < original.finish:
                    truncate(original, clone.finish)
                else:
                    truncate(clone, original.finish)
            return True

        while True:
            if not pending and not running:
                break
            if not pending:
                # Everything launched: speculate on stragglers, otherwise
                # drain the next completion.
                if config.speculation and try_speculate():
                    continue
                process_completions(min(a.finish for a in running))
                continue

            alive = cluster.alive_worker_ids()
            if not alive:
                abort(RuntimeError("no alive workers; cannot run taskset"))
            worker_id, slot, free = self._earliest_slot(alive, idle_bumps)
            now = max(free, submit_time, idle_bumps.get(worker_id, 0.0))
            if process_completions(now):
                continue  # retries/blacklist changed the picture: re-pick

            ready = [e for e in pending if e.not_before <= now + TIME_EPS]
            if not ready:
                # Every pending task is backing off: idle this slot until
                # the earliest retry becomes eligible.
                wake = min(e.not_before for e in pending)
                idle_bumps[worker_id] = max(
                    idle_bumps.get(worker_id, 0.0), max(wake, now + 1e-6))
                continue
            blacklisted_until = self.blacklist.blacklisted_until(
                worker_id, stage_id, now) \
                if self._blacklist_tracker is not None else 0.0
            if blacklisted_until > now:
                # This executor is excluded from offers: idle its slot
                # past the blacklist expiry.
                idle_bumps[worker_id] = max(
                    idle_bumps.get(worker_id, 0.0),
                    max(blacklisted_until, now + 1e-6))
                continue

            entry_by_task = {id(e.state.task): e for e in ready}
            local_pool = [
                e.state.task for e in ready
                if worker_id not in e.state.failed_workers
            ]
            task = self._pick_local_task(local_pool, worker_id)
            locality = PROCESS_LOCAL
            chosen_worker = worker_id
            if task is None:
                ready_tasks = [e.state.task for e in ready]
                allowed_any = (now - last_launch) >= self.locality_wait - TIME_EPS
                if not allowed_any and all(
                    not self._alive_preferred(t) for t in ready_tasks
                ):
                    allowed_any = True
                if allowed_any:
                    task = self._pick_any_task(ready_tasks)
                    state = by_task[id(task)]
                    offers = self._offers(alive, now)
                    eligible = [
                        w for w in offers
                        if w not in state.failed_workers
                        and not self.blacklist.is_blacklisted(
                            w, stage_id, now)
                    ] if (state.failed_workers
                          or self._blacklist_tracker is not None) else offers
                    # Last-resort fallback (documented in
                    # docs/FAULT_TOLERANCE.md): when *every* offered
                    # worker is excluded — the task failed on all of
                    # them, or all are blacklisted — launch anyway
                    # rather than deadlock; max_task_failures still
                    # bounds the damage.
                    chosen_worker = self.remote_policy.choose_worker(
                        self.context, task, eligible or offers, now
                    )
                    locality = ANY
                    if chosen_worker in self._alive_preferred(task):
                        locality = PROCESS_LOCAL
                else:
                    # Idle this slot until something can change: the wait
                    # expiring, or a preferred worker freeing up.
                    wake = last_launch + self.locality_wait
                    pref_free = self._earliest_preferred_free(ready_tasks)
                    if pref_free is not None:
                        wake = min(wake, pref_free)
                    idle_bumps[worker_id] = max(
                        idle_bumps.get(worker_id, 0.0), max(wake, now + 1e-6)
                    )
                    continue

            entry = entry_by_task[id(task)]
            pending.remove(entry)
            launch_at = max(now, driver_free)
            driver_free = launch_at + self.context.cost_model.driver_overhead_per_task
            launch_attempt(entry.state, chosen_worker, launch_at, locality)
            last_launch = launch_at
            idle_bumps.pop(chosen_worker, None)

        flush_events()
        return max(
            [submit_time]
            + [a.finish for a in attempts_log
               if a.metrics.status == "success"]
        )

    # ---- internals ----------------------------------------------------------------

    def _earliest_slot(
        self, alive: Sequence[int], idle_bumps: Dict[int, float]
    ) -> Tuple[int, int, float]:
        cluster = self.context.cluster
        if not idle_bumps:
            # Common case (no backoff idling in force): the kernel's
            # inter-worker free heap answers in O(log workers) with the
            # identical (free, wid, slot) ordering as the scan below —
            # ``alive`` is always the full alive membership here.
            found = cluster.kernel.earliest_free_worker()
            if found is not None:
                wid, slot, free = found
                return wid, slot, free
        best: Optional[Tuple[float, int, int]] = None
        for wid in alive:
            worker = cluster.get_worker(wid)
            slot, free = worker.earliest_free_slot()
            free = max(free, idle_bumps.get(wid, 0.0))
            key = (free, wid, slot)
            if best is None or key < best:
                best = key
        assert best is not None
        free, wid, slot = best
        return wid, slot, free

    def _alive_preferred(self, task: Task) -> List[int]:
        cluster = self.context.cluster
        return [
            w for w in task.preferred_workers
            if w in cluster.workers and cluster.get_worker(w).alive
        ]

    def _pick_local_task(self, pending: Sequence[Task], worker_id: int) -> Optional[Task]:
        """Among tasks preferring ``worker_id``, pick the one with fewest
        alternatives (most constrained first)."""
        candidates = [t for t in pending if worker_id in self._alive_preferred(t)]
        if not candidates:
            return None
        return min(candidates, key=lambda t: (len(self._alive_preferred(t)),
                                              t.partition))

    def _pick_any_task(self, pending: Sequence[Task]) -> Task:
        """Prefer launching tasks with no live preference (they gain
        nothing from waiting), then FIFO by partition."""
        unpreferred = [t for t in pending if not self._alive_preferred(t)]
        pool = unpreferred or list(pending)
        return min(pool, key=lambda t: t.partition)

    def _earliest_preferred_free(self, pending: Sequence[Task]) -> Optional[float]:
        cluster = self.context.cluster
        times = [
            cluster.get_worker(w).earliest_free_time()
            for t in pending
            for w in self._alive_preferred(t)
        ]
        return min(times) if times else None

    def _offers(self, alive: Sequence[int], now: float) -> List[int]:
        """Workers eligible for a remote launch right now: those with an
        idle slot at ``now``; if none (everyone busy), all alive workers."""
        cluster = self.context.cluster
        idle = [w for w in alive if cluster.get_worker(w).has_idle_slot(now)]
        return idle or list(alive)
