"""Critical-path analysis: attribute each job's makespan to named waits.

Given one job's span tree (:mod:`repro.obs.spans`), walk *backwards*
from ``JobEnd``: repeatedly pick the latest successful task attempt
finishing at or before the cursor, split its runtime into the task-phase
categories the cost model charged (compute, reads, shuffle fetch/write,
GC, launch — with compute reclassified as
**recompute** when a ``CacheMiss`` fell inside the task's window on its
worker), then explain the gap between the task's launch and its stage's
submission: time covered by failed prior attempts of the same logical
task (plus their retry backoff) is **retry**, up to ``locality_wait`` seconds
immediately before a non-local launch is **locality_wait**, and the
remainder is **sched_wait** (pool/queue/slot wait).  Gaps between
stages, and between job submission and the first stage, are sched_wait
too.

Because every step emits a segment ending exactly where the previous one
began, the segments *tile* ``[JobStart, JobEnd]`` by construction — the
blame invariant (category totals sum to the makespan) holds to
floating-point tolerance and :meth:`CriticalPathReport.problems` checks
it, which `stark critical-path` and the hypothesis suite assert.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..cluster.events import TIME_EPS

from .events import (
    TASK_PHASE_TABLE,
    BlockEvicted,
    CacheMiss,
    Event,
    TaskRetried,
)
from .spans import JobSpan, TaskSpan, build_spans

#: Blame categories in display order (waits last).
#: ``broker_recompute`` splits out of ``recompute`` the rebuilds whose
#: missing block was last evicted by the cluster-wide cache broker
#: (reason ``"broker"``) — the cost side of the broker's memory market.
CATEGORIES: Tuple[str, ...] = (
    "compute", "recompute", "broker_recompute", "read", "fetch",
    "shuffle_write", "launch", "gc", "sched_wait",
    "locality_wait", "retry", "other",
)

#: TaskEnd phase field -> blame category (compute may become recompute).
PHASE_CATEGORY: Tuple[Tuple[str, str], ...] = tuple(
    (field_name, category) for field_name, _, category in TASK_PHASE_TABLE)

#: Chrome reserved colour names for the Perfetto annotation track.
CATEGORY_COLORS: Dict[str, str] = {
    "compute": "thread_state_running",
    "recompute": "bad",
    "broker_recompute": "terrible",
    "read": "good",
    "fetch": "thread_state_iowait",
    "shuffle_write": "rail_animation",
    "launch": "grey",
    "gc": "terrible",
    "sched_wait": "white",
    "locality_wait": "yellow",
    "retry": "bad",
    "other": "grey",
}

_US = 1e6
_DRIVER_PID = 0
#: Driver thread track for critical-path spans (1=jobs and 2=stages in
#: the trace exporter).
CRITICAL_PATH_TID = 4


@dataclass
class BlameSegment:
    """One contiguous slice of a job's critical path."""

    start: float
    end: float
    category: str
    detail: str = ""
    task_id: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPathReport:
    """A job's makespan tiled into blame segments (chronological)."""

    job_id: int
    description: str
    start: float
    finish: float
    segments: List[BlameSegment] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return self.finish - self.start

    def blame(self) -> Dict[str, float]:
        """Seconds per category, every known category present."""
        totals = {category: 0.0 for category in CATEGORIES}
        for segment in self.segments:
            totals[segment.category] = (
                totals.get(segment.category, 0.0) + segment.duration)
        return totals

    def problems(self) -> List[str]:
        """Blame-invariant violations (empty when the report is sound):
        segments must tile ``[start, finish]`` with non-negative
        durations summing to the makespan."""
        problems: List[str] = []
        tol = TIME_EPS * max(1, len(self.segments) + 1)
        if not self.segments:
            if self.makespan > tol:
                problems.append(
                    f"job {self.job_id}: makespan {self.makespan:.6g}s "
                    f"but no blame segments")
            return problems
        if abs(self.segments[0].start - self.start) > tol:
            problems.append(
                f"job {self.job_id}: first segment starts at "
                f"{self.segments[0].start:.6g}, job at {self.start:.6g}")
        if abs(self.segments[-1].end - self.finish) > tol:
            problems.append(
                f"job {self.job_id}: last segment ends at "
                f"{self.segments[-1].end:.6g}, job at {self.finish:.6g}")
        for prev, cur in zip(self.segments, self.segments[1:]):
            if abs(cur.start - prev.end) > tol:
                problems.append(
                    f"job {self.job_id}: gap/overlap between segments at "
                    f"{prev.end:.6g} -> {cur.start:.6g}")
        for segment in self.segments:
            if segment.duration < -tol:
                problems.append(
                    f"job {self.job_id}: negative segment "
                    f"{segment.category} ({segment.duration:.6g}s)")
            if segment.category not in CATEGORIES:
                problems.append(
                    f"job {self.job_id}: unknown category "
                    f"{segment.category!r}")
        total = sum(segment.duration for segment in self.segments)
        if abs(total - self.makespan) > tol:
            problems.append(
                f"job {self.job_id}: blame sums to {total:.9g}s but "
                f"makespan is {self.makespan:.9g}s")
        return problems


class _Walk:
    """Backward-walk state: pushes prepend segments at the cursor."""

    def __init__(self, report: CriticalPathReport) -> None:
        self.report = report
        self.cursor = report.finish
        self._reversed: List[BlameSegment] = []

    def push(self, lo: float, category: str, detail: str = "",
             task_id: Optional[int] = None) -> None:
        lo = max(lo, self.report.start)
        if lo < self.cursor:  # sub-epsilon slices still tile exactly
            self._reversed.append(BlameSegment(
                start=lo, end=self.cursor, category=category,
                detail=detail, task_id=task_id))
            self.cursor = lo

    def finalize(self) -> None:
        self.report.segments = list(reversed(self._reversed))


def _index_aux(events: Iterable[Event]) -> tuple:
    """One pass over the raw stream for what every job's walk looks up:
    cache misses per worker as time-sorted ``(time, rdd_id, partition)``,
    every eviction per ``(rdd_id, partition)`` as time-sorted ``(time,
    by the broker?)``, and retry backoff per ``(job_id, task_id)``."""
    misses: Dict[int, List[Tuple[float, int, int]]] = {}
    evictions: Dict[Tuple[int, int], List[Tuple[float, bool]]] = {}
    backoffs: Dict[Tuple[int, int], float] = {}
    for event in events:
        if isinstance(event, CacheMiss):
            misses.setdefault(event.worker_id, []).append(
                (event.time, event.rdd_id, event.partition))
        elif isinstance(event, BlockEvicted):
            evictions.setdefault((event.rdd_id, event.partition), []).append(
                (event.time, event.reason == "broker"))
        elif isinstance(event, TaskRetried):
            backoffs[event.job_id, event.task_id] = event.backoff
    for entries in (*misses.values(), *evictions.values()):
        entries.sort()
    return misses, evictions, backoffs


def critical_paths(events: Sequence[Event],
                   locality_wait: float = 0.0) -> List[CriticalPathReport]:
    """Span-reconstruct ``events`` and blame-attribute every job (see
    module docstring), one report per job in job-id order.

    The walks classify with the auxiliary streams in ``events``:
    ``CacheMiss`` (compute -> recompute), ``BlockEvicted`` (recompute ->
    broker_recompute when the block's latest eviction was the broker's)
    and ``TaskRetried`` (failed attempts extended by their backoff); the
    index over them is built once and shared by all the walks.
    ``locality_wait`` is the delay scheduler's budget
    (``StarkConfig.locality_wait``) charged before non-local launches.
    """
    aux = _index_aux(events)
    return [_walk_job(job, *aux, locality_wait)
            for job in build_spans(events)]


# ---- walk internals --------------------------------------------------------

def _walk_job(job: JobSpan,
              misses: Dict[int, List[Tuple[float, int, int]]],
              evictions: Dict[Tuple[int, int], List[Tuple[float, bool]]],
              backoffs: Dict[Tuple[int, int], float],
              locality_wait: float) -> CriticalPathReport:
    report = CriticalPathReport(job_id=job.job_id,
                                description=job.description,
                                start=job.start, finish=job.finish)
    walk = _Walk(report)

    successes = sorted(job.successful_tasks(),
                       key=lambda t: (t.finish, t.start, t.task_id))
    others = [t for t in job.tasks() if not t.succeeded]
    submits = job.stage_submit_times()
    used: set = set()

    max_steps = 4 * len(successes) + 2 * len(job.stages) + 8
    steps = 0
    while walk.cursor > job.start + TIME_EPS:
        steps += 1
        if steps > max_steps:
            walk.push(job.start, "other", "walk budget exhausted")
            break
        task = _latest_finishing(successes, walk.cursor, used)
        if task is None:
            walk.push(job.start, "sched_wait",
                      "waiting before first task launch")
            break
        used.add(id(task))
        if walk.cursor - task.finish > TIME_EPS:
            walk.push(task.finish, "sched_wait",
                      f"gap after task {task.task_id} "
                      f"(s{task.stage_id} p{task.partition})")
        recompute = _window_miss_category(misses, evictions,
                                          task.end.worker_id,
                                          task.start, task.finish)
        _push_task_phases(walk, task, recompute)
        _push_prestart_gap(walk, job, task, others, submits, backoffs,
                           locality_wait)
    walk.finalize()
    return report


def _latest_finishing(successes: List[TaskSpan], cursor: float,
                      used: set) -> Optional[TaskSpan]:
    """Latest-finishing unused successful attempt with finish <= cursor
    (ties broken towards the latest start, i.e. the sort order)."""
    for task in reversed(successes):
        if id(task) in used:
            continue
        if task.finish <= cursor + TIME_EPS:
            return task
    return None


def _push_task_phases(walk: _Walk, task: TaskSpan,
                      recompute: Optional[str]) -> None:
    """Tile ``[task.start, task.finish]`` with its phase breakdown
    (phases occur in PHASE_CATEGORY order, so walk them in reverse);
    ``recompute`` is the category compute becomes on a cache miss."""
    label = (f"task {task.task_id} "
             f"(s{task.stage_id} p{task.partition})")
    for field_name, category in reversed(PHASE_CATEGORY):
        if walk.cursor <= task.start + TIME_EPS:
            break
        seconds = getattr(task.end, field_name)
        if seconds <= 0:
            continue
        if category == "compute" and recompute is not None:
            category = recompute
        lo = max(task.start, walk.cursor - seconds)
        walk.push(lo, category, label, task_id=task.task_id)
    if walk.cursor > task.start:
        # Phases under-sum the duration (should not happen: the metrics
        # contract is duration == sum of phases) — keep the tiling honest.
        walk.push(task.start, "other", f"{label} unattributed",
                  task_id=task.task_id)


def _push_prestart_gap(walk: _Walk, job: JobSpan, task: TaskSpan,
                       others: List[TaskSpan], submits: Dict[int, List[float]],
                       backoffs: Dict[Tuple[int, int], float],
                       locality_wait: float) -> None:
    """Explain ``[stage submit, task.start]`` then park the cursor at
    the stage submit (the next walk step finds the parent stage)."""
    stage_submits = submits.get(task.stage_id, [])
    submit = job.start
    for time in stage_submits:
        if time <= task.start + TIME_EPS:
            submit = max(submit, time)
    lo = max(submit, job.start)
    if walk.cursor - lo <= TIME_EPS:
        walk.push(lo, "sched_wait", "")
        return

    # Time covered by failed earlier attempts of the same logical task
    # (+ retry backoff) blames "retry".
    covered = [
        (attempt.start,
         attempt.finish + backoffs.get((job.job_id, attempt.task_id), 0.0))
        for attempt in others if attempt.logical_key() == task.logical_key()]

    boundaries = {lo, walk.cursor}
    for s, e in covered:
        if e > lo and s < walk.cursor:
            boundaries.add(min(max(s, lo), walk.cursor))
            boundaries.add(min(max(e, lo), walk.cursor))
    points = sorted(boundaries)

    # Delay-scheduling wait sits *immediately* before a non-local
    # launch; the budget applies only until the first covered slice.
    locality_budget = (locality_wait
                       if task.end.locality not in ("PROCESS_LOCAL",
                                                    "NODE_LOCAL")
                       else 0.0)
    for left, right in zip(reversed(points[:-1]), reversed(points[1:])):
        if walk.cursor <= lo + TIME_EPS:
            break
        if any(s <= left + TIME_EPS and e >= right - TIME_EPS
               for s, e in covered):
            locality_budget = 0.0
            walk.push(left, "retry", f"failed attempts of s{task.stage_id} "
                                     f"p{task.partition}")
            continue
        if locality_budget > TIME_EPS:
            take = min(locality_budget, right - left)
            walk.push(right - take, "locality_wait",
                      f"delay scheduling before task {task.task_id}")
            locality_budget = 0.0
        if walk.cursor - left > TIME_EPS:
            walk.push(left, "sched_wait", "")
    walk.push(lo, "sched_wait", "")


def _window_miss_category(
        misses: Dict[int, List[Tuple[float, int, int]]],
        evictions: Dict[Tuple[int, int], List[Tuple[float, bool]]],
        worker_id: int, start: float, finish: float) -> Optional[str]:
    """``None`` when no cache miss fell in the task's window on its
    worker; ``"broker_recompute"`` when one did and its block's latest
    eviction at or before the miss (any reason, ``"migrated"`` included)
    was the broker's; ``"recompute"`` otherwise."""
    entries = misses.get(worker_id)
    if not entries:
        return None
    idx = bisect.bisect_left(entries, (start - TIME_EPS,))
    category: Optional[str] = None
    while idx < len(entries) and entries[idx][0] <= finish + TIME_EPS:
        time, rdd_id, partition = entries[idx]
        evicted = evictions.get((rdd_id, partition), ())
        latest = bisect.bisect_right(evicted, (time + TIME_EPS, True)) - 1
        if latest >= 0 and evicted[latest][1]:
            return "broker_recompute"
        category = "recompute"
        idx += 1
    return category


# ---- rendering -------------------------------------------------------------

def ascii_blame_chart(report: CriticalPathReport, width: int = 40) -> str:
    """Bar chart of the blame breakdown, largest category first."""
    blame = {k: v for k, v in report.blame().items() if v > 0}
    makespan = max(report.makespan, 1e-12)
    lines = []
    for category, seconds in sorted(blame.items(),
                                    key=lambda kv: -kv[1]):
        frac = seconds / makespan
        bar = "#" * max(1, round(frac * width))
        lines.append(f"  {category:<14s} {bar:<{width}s} "
                     f"{seconds * 1000:9.3f} ms  {frac:6.1%}")
    return "\n".join(lines)


def critical_span_trace_events(report: CriticalPathReport,
                               ) -> List[Dict[str, object]]:
    """Chrome-trace annotation: one coloured span per blame segment on a
    dedicated driver thread track (merge into an exported trace's
    ``traceEvents``)."""
    events: List[Dict[str, object]] = [{
        "name": "thread_name", "ph": "M", "pid": _DRIVER_PID,
        "tid": CRITICAL_PATH_TID, "args": {"name": "critical path"},
    }]
    for segment in report.segments:
        events.append({
            "name": f"{segment.category}"
                    + (f" [{segment.detail}]" if segment.detail else ""),
            "cat": "critical_path", "ph": "X",
            "ts": segment.start * _US,
            "dur": max(segment.duration, 0.0) * _US,
            "pid": _DRIVER_PID, "tid": CRITICAL_PATH_TID,
            "cname": CATEGORY_COLORS.get(segment.category, "grey"),
            "args": {"job_id": report.job_id,
                     "category": segment.category,
                     "detail": segment.detail},
        })
    return events
