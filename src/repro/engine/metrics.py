"""Metrics: per-task cost breakdowns, per-job makespans, summaries.

The paper's figures are all built from these numbers: task delay sorted by
rank with the GC fraction highlighted (Fig 12), task min/mid/max with the
shuffle fraction (Fig 15), job makespans (Figs 11/14), and response-time
series over arrival rate or wall time (Figs 19/20).
"""

from __future__ import annotations

import itertools
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cluster.queueing import nearest_rank


@dataclass
class TaskMetrics:
    """Cost breakdown of one task attempt (all durations in seconds)."""

    task_id: int = -1
    stage_id: int = -1
    job_id: int = -1
    partition: int = -1
    group_id: Optional[int] = None
    worker_id: int = -1
    locality: str = "ANY"
    start_time: float = 0.0
    finish_time: float = 0.0
    #: 0 for the first attempt, incremented per retry of the same task.
    attempt: int = 0
    #: "success" | "failed" | "fetch_failed".
    status: str = "success"

    launch_overhead: float = 0.0
    cache_read_time: float = 0.0
    compute_time: float = 0.0
    shuffle_fetch_local_time: float = 0.0
    shuffle_fetch_remote_time: float = 0.0
    shuffle_write_time: float = 0.0
    checkpoint_read_time: float = 0.0
    source_read_time: float = 0.0
    gc_time: float = 0.0

    input_records: int = 0
    output_records: int = 0
    input_bytes: float = 0.0
    shuffle_bytes_fetched: float = 0.0
    shuffle_bytes_written: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    recomputed_partitions: int = 0
    #: Work charged rebuilding partitions of *cached* RDDs that missed
    #: (the Spark-1.3 miss penalty); subset of the other time fields.
    recompute_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.finish_time - self.start_time

    @property
    def shuffle_fetch_time(self) -> float:
        return self.shuffle_fetch_local_time + self.shuffle_fetch_remote_time

    def work_time(self) -> float:
        """Total charged work, which is also the slot occupancy time."""
        return (
            self.launch_overhead
            + self.cache_read_time
            + self.compute_time
            + self.shuffle_fetch_time
            + self.shuffle_write_time
            + self.checkpoint_read_time
            + self.source_read_time
            + self.gc_time
        )

    def scale_charges(self, fraction: float) -> None:
        """Scale every charged time field by ``fraction`` in place.

        Used to truncate an attempt that died mid-run: the slot is only
        occupied for the truncated time, and ``work_time()`` remains
        consistent with it.
        """
        for name in (
            "launch_overhead", "cache_read_time", "compute_time",
            "shuffle_fetch_local_time", "shuffle_fetch_remote_time",
            "shuffle_write_time", "checkpoint_read_time",
            "source_read_time", "gc_time", "recompute_time",
        ):
            setattr(self, name, getattr(self, name) * fraction)


@dataclass
class JobMetrics:
    """End-to-end accounting for one job (one action)."""

    job_id: int
    description: str = ""
    submit_time: float = 0.0
    finish_time: float = 0.0
    num_stages: int = 0
    skipped_stages: int = 0
    tasks: List[TaskMetrics] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return self.finish_time - self.submit_time

    def total_shuffle_fetch_time(self) -> float:
        return sum(t.shuffle_fetch_time for t in self.tasks)


class MetricsCollector:
    """Accumulates job and task metrics across a whole experiment."""

    def __init__(self) -> None:
        self.jobs: List[JobMetrics] = []
        self._task_ids = itertools.count()
        self._job_ids = itertools.count()
        #: Capacity evictions across all executor block stores so far.
        self.evictions = 0

    def record_eviction(self) -> None:
        """Count a capacity eviction (fed by the block manager)."""
        self.evictions += 1

    def new_job(self, description: str, submit_time: float) -> JobMetrics:
        job = JobMetrics(
            job_id=next(self._job_ids),
            description=description,
            submit_time=submit_time,
        )
        self.jobs.append(job)
        return job

    def new_task_metrics(self, job: JobMetrics, stage_id: int, partition: int) -> TaskMetrics:
        tm = TaskMetrics(
            task_id=next(self._task_ids),
            stage_id=stage_id,
            job_id=job.job_id,
            partition=partition,
        )
        job.tasks.append(tm)
        return tm

    def new_attempt_metrics(
        self,
        original: TaskMetrics,
        attempt: int,
    ) -> TaskMetrics:
        """Fresh metrics for a retry of a task.

        Each attempt gets its own :class:`TaskMetrics` (a re-run must not
        double-charge the original's time fields); it joins the owning
        job's task list so event/metric reconciliation keeps holding —
        every attempt emits exactly one TaskStart/TaskEnd pair.
        """
        tm = TaskMetrics(
            task_id=next(self._task_ids),
            stage_id=original.stage_id,
            job_id=original.job_id,
            partition=original.partition,
            group_id=original.group_id,
            attempt=attempt,
        )
        job = self._job_by_id(original.job_id)
        job.tasks.append(tm)
        return tm

    def discard_task_metrics(self, tm: TaskMetrics) -> None:
        """Drop metrics for a task that never launched (its taskset was
        aborted by a fetch failure before the task ran)."""
        job = self._job_by_id(tm.job_id)
        try:
            job.tasks.remove(tm)
        except ValueError:
            pass

    def _job_by_id(self, job_id: int) -> JobMetrics:
        for job in reversed(self.jobs):
            if job.job_id == job_id:
                return job
        raise KeyError(f"unknown job id {job_id}")

    # ---- summaries -------------------------------------------------------------

    def last_job(self) -> JobMetrics:
        if not self.jobs:
            raise RuntimeError("no jobs recorded yet")
        return self.jobs[-1]

    def makespans(self) -> List[float]:
        return [j.makespan for j in self.jobs]

    def mean_makespan(self) -> float:
        spans = self.makespans()
        return statistics.fmean(spans) if spans else 0.0

    def percentile_makespan(self, pct: float) -> float:
        """Nearest-rank percentile of the job makespans (see
        :func:`repro.cluster.queueing.nearest_rank`)."""
        return nearest_rank(sorted(self.makespans()), pct)

    def total_tasks(self) -> int:
        return sum(len(j.tasks) for j in self.jobs)

    def cache_stats(self) -> Dict[str, float]:
        """Aggregate cache behaviour across the experiment: hits, misses,
        hit rate, capacity evictions, and the count/time of cache-miss
        recomputations (analogous to :meth:`locality_fractions`)."""
        hits = misses = recomputed = 0
        recompute_time = 0.0
        for job in self.jobs:
            for t in job.tasks:
                hits += t.cache_hits
                misses += t.cache_misses
                recomputed += t.recomputed_partitions
                recompute_time += t.recompute_time
        reads = hits + misses
        return {
            "hits": float(hits),
            "misses": float(misses),
            "hit_rate": hits / reads if reads else 0.0,
            "evictions": float(self.evictions),
            "recomputed_partitions": float(recomputed),
            "recompute_time": recompute_time,
        }

    def locality_fractions(self) -> Dict[str, float]:
        """Fraction of tasks launched at each locality level."""
        counts: Dict[str, int] = {}
        total = 0
        for job in self.jobs:
            for t in job.tasks:
                counts[t.locality] = counts.get(t.locality, 0) + 1
                total += 1
        if total == 0:
            return {}
        return {level: n / total for level, n in counts.items()}
