"""Tasks: the unit of scheduling and (simulated) execution.

``ShuffleMapTask`` / ``ResultTask`` process one partition each, as in
Spark.  ``GroupShuffleMapTask`` / ``GroupResultTask`` are Stark's
enhancements (§III-C2): when the target RDD belongs to an extendable-
partitioned namespace, all fine partitions of one partition *group* are
packed into a single task, cutting per-task scheduling overhead.

Running a task on a worker produces the real output records *and* the
simulated duration: every cost charged through the
:class:`~repro.engine.compute.EvalContext` lands in the task's
:class:`~repro.engine.metrics.TaskMetrics`, and a GC surcharge is applied
from the worker's heap pressure at that moment.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, TYPE_CHECKING

from .compute import EvalContext
from .metrics import TaskMetrics

if TYPE_CHECKING:  # pragma: no cover
    from .context import StarkContext
    from .stage import Stage


class Task:
    """Base task: knows its stage, target partitions, and preferences."""

    def __init__(
        self,
        stage: "Stage",
        partitions: Sequence[int],
        metrics: TaskMetrics,
        group_id: Optional[int] = None,
    ) -> None:
        if not partitions:
            raise ValueError("task needs at least one partition")
        self.stage = stage
        self.partitions = list(partitions)
        self.metrics = metrics
        self.metrics.group_id = group_id
        self.group_id = group_id
        #: Executor ids where this task would run data-local; filled by
        #: the DAG scheduler before submission.
        self.preferred_workers: List[int] = []
        self.result: Any = None

    @property
    def partition(self) -> int:
        """Primary partition (first of the group for group tasks)."""
        return self.partitions[0]

    def run(
        self,
        context: "StarkContext",
        worker_id: int,
        metrics: Optional[TaskMetrics] = None,
        commit_effects: bool = True,
    ) -> float:
        """Execute on ``worker_id``; return the simulated duration.

        The duration is the sum of all charged costs plus launch overhead
        and the GC surcharge; the caller (task scheduler) is responsible
        for slot occupancy and start/finish stamping.

        ``metrics`` charges a different :class:`TaskMetrics` than the
        task's own — each retry gets a fresh one
        so re-execution never double-charges.  ``commit_effects=False``
        runs the task without durable side effects (no map-output
        registration, no cache inserts): the scheduler uses it for
        attempts it has pre-sampled to fail.
        """
        model = context.cost_model
        tm = metrics if metrics is not None else self.metrics
        tm.worker_id = worker_id
        tm.launch_overhead += model.task_launch_overhead

        ctx = EvalContext(context, worker_id, tm,
                          commit_effects=commit_effects)
        self._execute(context, ctx)

        # GC surcharge: heap pressure = cached bytes + this task's working
        # set, relative to the executor's memory budget.  The working set
        # is the sum of footprints the EvalContext recorded at
        # memoization time — re-sizing every record of every memoized
        # partition here was the simulator's single largest wall-clock
        # cost (≈85% of the full-stack profile before PR 9).
        store = context.block_manager_master.stores[worker_id]
        working_set = ctx.working_set_bytes()
        heap_utilisation = min(
            1.0,
            (store.used_bytes + working_set)
            / context.cluster.get_worker(worker_id).memory_bytes,
        )
        busy = tm.compute_time + tm.shuffle_fetch_time + tm.cache_read_time
        tm.gc_time += model.gc_cost(busy, heap_utilisation)
        return tm.work_time()

    def _execute(self, context: "StarkContext", ctx: EvalContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(stage={self.stage.stage_id}, "
            f"partitions={self.partitions})"
        )


class ShuffleMapTask(Task):
    """Computes the map side of a shuffle for one partition and commits
    the buckets to the worker's local disk."""

    def _execute(self, context: "StarkContext", ctx: EvalContext) -> None:
        dep = self.stage.shuffle_dep
        assert dep is not None, "shuffle map task on a result stage"
        for pid in self.partitions:
            ctx.write_shuffle_output(dep, pid)


class ResultTask(Task):
    """Computes the final RDD partition(s) and applies the action."""

    def __init__(
        self,
        stage: "Stage",
        partitions: Sequence[int],
        metrics: TaskMetrics,
        action: Callable[[list], Any],
        group_id: Optional[int] = None,
    ) -> None:
        super().__init__(stage, partitions, metrics, group_id=group_id)
        self.action = action

    def _execute(self, context: "StarkContext", ctx: EvalContext) -> None:
        per_partition = []
        for pid in self.partitions:
            records = ctx.evaluate(self.stage.rdd, pid)
            ctx.metrics.output_records += len(records)
            per_partition.append(self.action(records))
        self.result = per_partition


class GroupShuffleMapTask(ShuffleMapTask):
    """Stark's grouped map task: one task per partition group."""


class GroupResultTask(ResultTask):
    """Stark's grouped result task: one task per partition group."""
