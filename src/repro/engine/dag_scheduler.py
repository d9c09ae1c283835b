"""DAG scheduler: stage construction and job submission.

Faithful to Spark's DAGScheduler where the paper depends on it:

* the lineage graph is cut at shuffle dependencies into stages; one
  shuffle dependency maps to exactly one shuffle-map stage, shared across
  jobs;
* a shuffle-map stage whose outputs are all registered is **skipped**
  (its map outputs persist on disk), which is why "recompute from the
  reducing phase of B" is the locality-miss penalty in Fig 1;
* the map stage belongs to its dependency and the scheduler only holds
  the dependency weakly: once no RDD can reach it, its map outputs and
  disk entries are released (Spark's ``ContextCleaner``; see
  ``repro.engine.shuffle``);
* preferred task locations are resolved bottom-up through narrow chains
  from cached blocks — and, first of all, from the
  :class:`~repro.core.locality_manager.LocalityManager` when the RDD
  carries a co-locality namespace (Stark §III-B);
* when the target RDD's namespace has an extendable group tree, tasks are
  created per partition *group* (Stark §III-C2) instead of per partition.
"""

from __future__ import annotations

import weakref
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from ..obs.events import (
    JobEnd,
    JobStart,
    StageCompleted,
    StageResubmitted,
    StageSubmitted,
)
from .dependency import OneToOneDependency, ShuffleDependency
from .fault_tolerance import FetchFailedError
from .lineage import post_order
from .metrics import JobMetrics
from .stage import Stage
from .task import (
    GroupResultTask,
    GroupShuffleMapTask,
    ResultTask,
    ShuffleMapTask,
    Task,
)

if TYPE_CHECKING:  # pragma: no cover
    from .context import StarkContext
    from .rdd import RDD


class DAGScheduler:
    """Builds stages from lineage and drives them through the task
    scheduler in topological order."""

    def __init__(self, context: "StarkContext") -> None:
        self.context = context
        #: shuffle_id -> weak reference to its dependency, which owns the
        #: shuffle-map stage shared across jobs.  The reference's callback
        #: releases the shuffle when the dependency dies.
        self._shuffle_deps: Dict[int, "weakref.ref[ShuffleDependency]"] = {}
        #: stage_id -> result tasks of the stage just executed.
        self._last_result_tasks: Dict[int, List[Task]] = {}
        #: shuffle ids whose parent stages were re-resolved this job;
        #: parent sets depend on what is cached/checkpointed *now*, so
        #: reusing a stage across jobs must refresh them (a parent pruned
        #: as "cached" months ago may need to re-run after evictions).
        self._refreshed_shuffles: set = set()

    # ---- job entry -------------------------------------------------------------

    def run_job(
        self,
        rdd: "RDD",
        action: Callable[[list], Any],
        description: str = "",
        submit_time: Optional[float] = None,
    ) -> List[Any]:
        """Run ``action`` over every partition of ``rdd``; returns the
        per-partition results in partition order."""
        context = self.context
        kernel = context.cluster.kernel
        # Deliver everything due at the frontier (armed failures, policy
        # timers) before planning; no-ops when already inside the kernel's
        # event loop (an arrival-driven job).
        kernel.pump()
        if submit_time is None:
            submit_time = kernel.now
        job = context.metrics.new_job(description or f"{rdd.name}.job", submit_time)

        self._refreshed_shuffles.clear()
        final_stage = self._build_result_stage(rdd)
        order = post_order(final_stage, attrgetter("parent_stages"))
        job.num_stages = len(order)

        bus = context.event_bus
        if bus.active:
            bus.post(JobStart(time=submit_time, job_id=job.job_id,
                              description=job.description))

        # Cache subsystem hooks: register the references this job will
        # hold on cached RDDs; stage completions below drain them.
        cache_manager = context.cache_manager
        cache_manager.on_job_submit(job.job_id, rdd, order)

        stage_finish: Dict[int, float] = {}
        frontier = submit_time
        # An aborted job (max_task_failures, max_stage_attempts, ...)
        # releases its references and pins but drains no declared use.
        try:
            for stage in order:
                parents_done = max(
                    (stage_finish[p.stage_id] for p in stage.parent_stages),
                    default=submit_time,
                )
                start = max(frontier, parents_done)
                if stage.is_shuffle_map and self._can_skip(stage):
                    job.skipped_stages += 1
                    stage_finish[stage.stage_id] = start
                    if bus.active:
                        bus.post(StageSubmitted(
                            time=start, job_id=job.job_id,
                            stage_id=stage.stage_id, num_tasks=0,
                            is_shuffle_map=True))
                        bus.post(StageCompleted(
                            time=start, job_id=job.job_id,
                            stage_id=stage.stage_id, skipped=True,
                            duration=0.0))
                    cache_manager.on_stage_complete(job.job_id, stage.stage_id)
                    continue
                finish = self._run_stage(stage, job, start, action)
                stage_finish[stage.stage_id] = finish
                frontier = max(frontier, start)
                cache_manager.on_stage_complete(job.job_id, stage.stage_id)
        except BaseException:
            cache_manager.on_job_abort(job.job_id)
            raise

        finish_time = stage_finish[final_stage.stage_id]
        kernel.advance_to(max(kernel.now, finish_time))
        # The job's work pushed the frontier; fire whatever came due
        # meanwhile (kill/restart schedules) so the next job sees their
        # effects.
        kernel.pump()
        job.finish_time = finish_time
        results = self._collect_results(final_stage)
        cache_manager.on_job_complete(job.job_id)
        if bus.active:
            bus.post(JobEnd(time=finish_time, job_id=job.job_id,
                            duration=job.makespan,
                            num_stages=job.num_stages,
                            skipped_stages=job.skipped_stages))
        return results

    # ---- stage construction ---------------------------------------------------------

    def _build_result_stage(self, rdd: "RDD") -> Stage:
        parents = self._parent_stages(rdd)
        return Stage(rdd, None, parents)

    def _get_shuffle_stage(self, dep: ShuffleDependency) -> Stage:
        stage = dep.map_stage
        if stage is None:
            stage = dep.map_stage = Stage(dep.rdd, dep, [])
            self.context.map_output_tracker.register_shuffle(
                dep.shuffle_id, dep.rdd.num_partitions
            )
            self._shuffle_deps[dep.shuffle_id] = weakref.ref(
                dep, partial(self._release_shuffle, dep.shuffle_id))
        if dep.shuffle_id not in self._refreshed_shuffles:
            # Mark before recursing: the lineage is acyclic, but shared
            # ancestors must not be refreshed twice in one job.
            self._refreshed_shuffles.add(dep.shuffle_id)
            stage.parent_stages = self._parent_stages(dep.rdd)
        return stage

    def _release_shuffle(self, shuffle_id: int, _dead: object) -> None:
        """Drop a dead dependency's map outputs from the tracker and from
        every worker's disk, keeping the two a consistent pair."""
        del self._shuffle_deps[shuffle_id]
        self.context.map_output_tracker.unregister_shuffle(shuffle_id)
        for worker in self.context.cluster.workers.values():
            worker.shuffle_disk.pop(shuffle_id, None)

    def _parent_stages(self, rdd: "RDD") -> List[Stage]:
        """Shuffle-map stages reachable from ``rdd`` through narrow deps.

        The walk prunes at RDDs whose every partition is already
        available (cached somewhere or checkpointed) — Spark's
        ``getMissingParentStages`` does the same via ``getCacheLocs``, so
        a fully cached/checkpointed RDD never forces its ancestors to
        re-run, even when their shuffle outputs were lost.
        """
        parents: List[Stage] = []
        seen_rdds = set()
        seen_shuffles = set()
        stack = [rdd] if not self._all_partitions_available(rdd) else []
        while stack:
            current = stack.pop()
            if current.rdd_id in seen_rdds:
                continue
            seen_rdds.add(current.rdd_id)
            for dep in current.dependencies:
                if isinstance(dep, ShuffleDependency):
                    if dep.shuffle_id not in seen_shuffles:
                        seen_shuffles.add(dep.shuffle_id)
                        parents.append(self._get_shuffle_stage(dep))
                elif not self._all_partitions_available(dep.rdd):
                    stack.append(dep.rdd)
        return parents

    def _all_partitions_available(self, rdd: "RDD") -> bool:
        """True when every partition can be served without ancestors."""
        context = self.context
        if context.checkpoint_store.has_checkpoint(rdd.rdd_id):
            return True
        if not rdd.cached:
            return False
        bmm = context.block_manager_master
        return all(
            bmm.is_cached_anywhere((rdd.rdd_id, pid))
            for pid in range(rdd.num_partitions)
        )

    def _can_skip(self, stage: Stage) -> bool:
        dep = stage.shuffle_dep
        assert dep is not None
        return self.context.map_output_tracker.is_shuffle_complete(dep.shuffle_id)

    # ---- stage execution -----------------------------------------------------------------

    def _run_stage(
        self,
        stage: Stage,
        job: JobMetrics,
        start_time: float,
        action: Callable[[list], Any],
        only_partitions: Optional[set] = None,
    ) -> float:
        """Run ``stage``, resubmitting on fetch failures.

        A :class:`FetchFailedError` from the taskset means some parent
        map output could not be served.  Spark's response, mirrored here:
        unregister the failing executor's outputs for that shuffle, re-run
        the parent map stage for exactly the now-missing partitions, then
        resubmit this stage — at most ``max_stage_attempts`` times.
        """
        config = self.context.config
        tracker = self.context.map_output_tracker
        bus = self.context.event_bus
        attempt = 1
        start = start_time
        while True:
            try:
                return self._run_stage_attempt(
                    stage, job, start, action, only_partitions)
            except FetchFailedError as exc:
                if attempt >= config.max_stage_attempts:
                    raise
                attempt += 1
                failed_at = max(start, getattr(exc, "failed_at", start))
                tracker.remove_outputs_for_shuffle_on_worker(
                    exc.shuffle_id, exc.worker_id)
                if bus.active:
                    bus.post(StageResubmitted(
                        time=failed_at, job_id=job.job_id,
                        stage_id=stage.stage_id, attempt=attempt,
                        shuffle_id=exc.shuffle_id, reason=exc.reason))
                parent_finish = failed_at
                ref = self._shuffle_deps.get(exc.shuffle_id)
                parent_dep = None if ref is None else ref()
                if parent_dep is not None and not tracker.is_shuffle_complete(
                        exc.shuffle_id):
                    missing = set(
                        tracker.missing_map_partitions(exc.shuffle_id))
                    parent_finish = self._run_stage(
                        parent_dep.map_stage, job, failed_at, action,
                        only_partitions=missing)
                start = max(start, parent_finish)

    def _run_stage_attempt(
        self,
        stage: Stage,
        job: JobMetrics,
        start_time: float,
        action: Callable[[list], Any],
        only_partitions: Optional[set] = None,
    ) -> float:
        tasks = self._create_tasks(stage, job, action)
        if only_partitions is not None:
            kept: List[Task] = []
            for task in tasks:
                if any(p in only_partitions for p in task.partitions):
                    kept.append(task)
                else:
                    self.context.metrics.discard_task_metrics(task.metrics)
            tasks = kept or tasks
        for task in tasks:
            task.preferred_workers = self._preferred_workers(stage.rdd, task)
        bus = self.context.event_bus
        if bus.active:
            bus.post(StageSubmitted(
                time=start_time, job_id=job.job_id,
                stage_id=stage.stage_id, num_tasks=len(tasks),
                is_shuffle_map=stage.is_shuffle_map))
        finish = self.context.task_scheduler.run_taskset(tasks, start_time)
        if bus.active:
            bus.post(StageCompleted(
                time=finish, job_id=job.job_id, stage_id=stage.stage_id,
                skipped=False, duration=finish - start_time))
        if not stage.is_shuffle_map:
            self._last_result_tasks[stage.stage_id] = tasks
        return finish

    def _create_tasks(
        self, stage: Stage, job: JobMetrics, action: Callable[[list], Any]
    ) -> List[Task]:
        context = self.context
        groups = None
        if stage.rdd.namespace is not None:
            groups = context.group_manager.groups_for(stage.rdd.namespace)

        def metrics(pid: int):
            return context.metrics.new_task_metrics(job, stage.stage_id, pid)

        tasks: List[Task] = []
        if groups:
            # Stark group tasks: one task per partition group (§III-C2).
            for group in groups:
                pids = [p for p in group.partitions if p < stage.num_partitions]
                if not pids:
                    continue
                tm = metrics(pids[0])
                if stage.is_shuffle_map:
                    tasks.append(GroupShuffleMapTask(stage, pids, tm,
                                                     group_id=group.group_id))
                else:
                    tasks.append(GroupResultTask(stage, pids, tm, action,
                                                 group_id=group.group_id))
            covered = {p for t in tasks for p in t.partitions}
            missing = [p for p in range(stage.num_partitions) if p not in covered]
            for pid in missing:
                tm = metrics(pid)
                if stage.is_shuffle_map:
                    tasks.append(ShuffleMapTask(stage, [pid], tm))
                else:
                    tasks.append(ResultTask(stage, [pid], tm, action))
        else:
            for pid in range(stage.num_partitions):
                tm = metrics(pid)
                if stage.is_shuffle_map:
                    tasks.append(ShuffleMapTask(stage, [pid], tm))
                else:
                    tasks.append(ResultTask(stage, [pid], tm, action))
        return tasks

    def _collect_results(self, final_stage: Stage) -> List[Any]:
        tasks = self._last_result_tasks.pop(final_stage.stage_id, [])
        by_pid: Dict[int, Any] = {}
        for task in tasks:
            assert isinstance(task, ResultTask)
            for pid, value in zip(task.partitions, task.result):
                by_pid[pid] = value
        return [by_pid[p] for p in sorted(by_pid)]

    # ---- locality resolution ------------------------------------------------------------------

    def _preferred_workers(self, rdd: "RDD", task: Task) -> List[int]:
        """Preferred executors for ``task``, by priority:

        1. the LocalityManager's pinned executor set for the collection
           partition (when the RDD carries a namespace);
        2. executors caching the partition of the deepest cache-hit RDD
           along the narrow chain;
        3. nothing — reduce tasks of un-managed shuffles gain little from
           locality (§II-B) and run wherever slots free up.
        """
        pid = task.partition
        manager = self.context.locality_manager
        if rdd.namespace is not None and manager.has_namespace(rdd.namespace):
            pinned = manager.preferred_executors(rdd.namespace, pid, task.group_id)
            if pinned:
                return pinned
        return self._cached_chain_locations(rdd, pid)

    def _cached_chain_locations(self, rdd: "RDD", pid: int, depth: int = 0) -> List[int]:
        if depth > 64:
            return []
        bmm = self.context.block_manager_master
        locs = bmm.locations((rdd.rdd_id, pid))
        if locs:
            return sorted(locs)
        broker = self.context.cache_broker
        if broker is not None:
            # Steer towards an equivalent RDD's cached blocks so a
            # cross-job lineage-prefix hit lands local (free) instead of
            # paying the remote serde + network read.
            equivalent = broker.equivalent_for(rdd.rdd_id)
            if equivalent is not None:
                locs = bmm.locations((equivalent, pid))
                if locs:
                    return sorted(locs)
        for dep in rdd.dependencies:
            if isinstance(dep, OneToOneDependency):
                parent_locs = self._cached_chain_locations(
                    dep.rdd, pid, depth + 1)
                if parent_locs:
                    return parent_locs
        return []
