"""Causal spans: the job → stage → task tree rebuilt from the event stream.

The event bus emits flat lifecycle pairs (``JobStart``/``JobEnd``,
``StageSubmitted``/``StageCompleted``, ``TaskStart``/``TaskEnd``).  This
module folds one event sequence back into the causality tree the
scheduler executed — each job owning its stage windows, each stage
owning every task *attempt* that ran under it (successful or failed)
— which is what the critical-path engine in
:mod:`repro.obs.critical_path` walks.

Everything here is pure post-processing over collected events: no
engine imports, no simulated time charged.  Feed it a live
:class:`~repro.obs.listeners.EventCollector`'s events or a replayed
JSONL log (:func:`~repro.obs.listeners.read_event_log`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .events import (
    Event,
    JobEnd,
    JobStart,
    StageCompleted,
    StageSubmitted,
    TaskEnd,
)


@dataclass
class TaskSpan:
    """One task *attempt* (retries are separate spans sharing the same
    ``(job_id, stage_id, partition)``)."""

    end: TaskEnd

    @property
    def job_id(self) -> int:
        return self.end.job_id

    @property
    def stage_id(self) -> int:
        return self.end.stage_id

    @property
    def task_id(self) -> int:
        return self.end.task_id

    @property
    def partition(self) -> int:
        return self.end.partition

    @property
    def start(self) -> float:
        return self.end.time - self.end.duration

    @property
    def finish(self) -> float:
        return self.end.time

    @property
    def duration(self) -> float:
        return self.end.duration

    @property
    def succeeded(self) -> bool:
        return self.end.status == "success"

    def logical_key(self) -> Tuple[int, int, int]:
        """Attempts of the same logical task share this key (task_ids
        are fresh per attempt)."""
        return (self.end.job_id, self.end.stage_id, self.end.partition)


@dataclass
class StageSpan:
    """One stage scheduling window (a resubmitted stage contributes one
    span per attempt, in submission order)."""

    job_id: int
    stage_id: int
    submit_time: float
    complete_time: float
    num_tasks: int
    is_shuffle_map: bool
    skipped: bool
    tasks: List[TaskSpan] = field(default_factory=list)


@dataclass
class JobSpan:
    """One job window with its stage and task children."""

    job_id: int
    description: str
    start: float
    finish: float
    stages: List[StageSpan] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return self.finish - self.start

    def tasks(self) -> List[TaskSpan]:
        return [t for s in self.stages for t in s.tasks]

    def successful_tasks(self) -> List[TaskSpan]:
        return [t for t in self.tasks() if t.succeeded]

    def stage_submit_times(self) -> Dict[int, List[float]]:
        """stage_id -> submit times of every attempt, ascending."""
        out: Dict[int, List[float]] = {}
        for stage in self.stages:
            out.setdefault(stage.stage_id, []).append(stage.submit_time)
        for times in out.values():
            times.sort()
        return out


def build_spans(events: Iterable[Event]) -> List[JobSpan]:
    """Fold an event sequence into per-job span trees (job-id order).

    Tolerant of partial streams: a job with no ``JobEnd`` (or a stage
    with no ``StageCompleted``) is closed at its last observed child
    time, so crashed or truncated logs still analyse.
    """
    starts: Dict[int, JobStart] = {}
    jobs: Dict[int, JobSpan] = {}
    open_stages: Dict[Tuple[int, int], List[StageSubmitted]] = {}
    stages: Dict[int, List[StageSpan]] = {}
    tasks: Dict[int, List[TaskSpan]] = {}

    for event in events:
        if isinstance(event, JobStart):
            starts[event.job_id] = event
        elif isinstance(event, JobEnd):
            begin = starts.pop(event.job_id, None)
            jobs[event.job_id] = JobSpan(
                job_id=event.job_id,
                description=begin.description if begin else "",
                start=begin.time if begin else event.time - event.duration,
                finish=event.time,
            )
        elif isinstance(event, StageSubmitted):
            open_stages.setdefault(
                (event.job_id, event.stage_id), []).append(event)
        elif isinstance(event, StageCompleted):
            pending = open_stages.get((event.job_id, event.stage_id))
            submitted = pending.pop(0) if pending else None
            stages.setdefault(event.job_id, []).append(StageSpan(
                job_id=event.job_id,
                stage_id=event.stage_id,
                submit_time=(submitted.time if submitted
                             else event.time - event.duration),
                complete_time=event.time,
                num_tasks=submitted.num_tasks if submitted else 0,
                is_shuffle_map=(submitted.is_shuffle_map
                                if submitted else False),
                skipped=event.skipped,
            ))
        elif isinstance(event, TaskEnd):
            tasks.setdefault(event.job_id, []).append(TaskSpan(end=event))

    # Close dangling jobs at their last observed child time.
    for job_id, begin in starts.items():
        children = ([s.complete_time for s in stages.get(job_id, [])]
                    + [t.finish for t in tasks.get(job_id, [])])
        jobs[job_id] = JobSpan(job_id=job_id, description=begin.description,
                               start=begin.time,
                               finish=max(children, default=begin.time))

    for job_id, job in jobs.items():
        job.stages = sorted(stages.get(job_id, []),
                            key=lambda s: (s.submit_time, s.stage_id))
        # Attach each task attempt to the latest stage attempt submitted
        # at or before its start (resubmissions re-run tasks under the
        # newer window); fall back to the first matching stage_id.
        by_stage: Dict[int, List[StageSpan]] = {}
        for stage in job.stages:
            by_stage.setdefault(stage.stage_id, []).append(stage)
        for task in sorted(tasks.get(job_id, []),
                           key=lambda t: (t.start, t.finish, t.task_id)):
            candidates = by_stage.get(task.stage_id)
            if not candidates:
                continue
            owner: Optional[StageSpan] = None
            for stage in candidates:
                if stage.submit_time <= task.start + 1e-12:
                    owner = stage
            (owner or candidates[0]).tasks.append(task)

    return [jobs[job_id] for job_id in sorted(jobs)]
