"""Chrome/Perfetto trace exporter.

Consumes the engine's event stream and emits Trace Event Format JSON
(the ``{"traceEvents": [...]}`` container) loadable by Perfetto or
``chrome://tracing``:

* one *process* per worker, one *thread track* per executor slot —
  slots are reconstructed by greedy interval packing of the worker's
  task spans, which reproduces the earliest-free-slot assignment the
  simulated :class:`~repro.cluster.worker.Worker` uses;
* every task is a complete-event (``"X"``) span, *colour-phased*: the
  task span carries nested sub-spans for launch / cache read / compute /
  shuffle / checkpoint+source read / GC, each with a stable Chrome
  colour name, so Perfetto shows where each task's time went;
* evictions, cache misses, failures, and checkpoints render as instant
  events (``"i"``) on the owning worker's track;
* jobs and stages render as spans on a dedicated "driver" process.

Simulated seconds map to trace microseconds (1 s -> 1e6 us).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from ..cluster.events import TIME_EPS

from .events import (
    TASK_PHASE_TABLE,
    BlockCached,
    BlockEvicted,
    BlocksMigrated,
    BrokerEvicted,
    BrokerMigrated,
    BrokerPrefixHit,
    CacheMiss,
    CheckpointWritten,
    DatasetBranched,
    DatasetDropped,
    DatasetRegistered,
    Event,
    ExecutorBlacklisted,
    FailureInjected,
    FetchFailed,
    JobEnd,
    JobShed,
    JobStart,
    LineageRecovered,
    PoolWeightsUpdated,
    QueryCompleted,
    QueryFailed,
    QueryPlanned,
    ScalingDecision,
    StageCompleted,
    StageResubmitted,
    StageSubmitted,
    TaskEnd,
    TaskRetried,
    TaskSpeculated,
    TenantJobShed,
    TenantSloAlert,
    WorkerDecommissioned,
    WorkerProvisioned,
)

_US = 1e6  # simulated seconds -> trace microseconds

#: pid of the synthetic driver process (workers use pid = worker_id + 1).
DRIVER_PID = 0

#: Driver thread track for multi-tenant service markers (sheds, dataset
#: lifecycle, pool reweights, SLO alerts).
SERVICE_TID = 5

#: Driver thread track for SQL query spans (planned -> completed/failed).
SQL_TID = 6

#: Driver thread tracks, tid -> name, in metadata order.  Jobs and stages
#: are always named, the rest only when something was drawn on them.
#: Tid 4 is the critical-path annotation track
#: (:data:`~repro.obs.critical_path.CRITICAL_PATH_TID`).
_DRIVER_TRACKS: Dict[int, str] = {
    1: "jobs", 2: "stages", 3: "scaling", SERVICE_TID: "service",
    SQL_TID: "sql",
}

#: Counter tracks (Perfetto step charts), name -> args key, in section
#: order: alive workers per membership change; cluster-wide resident
#: bytes per cache or eviction event (the sampler's cache_bytes timeline);
#: cumulative broker evictions + migrations + cross-job prefix hits.
_COUNTERS: Dict[str, str] = {
    "cluster size": "alive workers",
    "cache bytes": "resident bytes",
    "broker actions": "broker actions",
}

#: Trace-phase colour names (Chrome's reserved palette, understood by
#: Perfetto's legacy colour mapping).
PHASE_COLORS = {
    "launch": "grey",
    "cache_read": "good",
    "compute": "thread_state_running",
    "shuffle_fetch": "thread_state_iowait",
    "handoff": "thread_state_runnable",
    "shuffle_write": "rail_animation",
    "checkpoint_read": "rail_idle",
    "source_read": "rail_load",
    "gc": "terrible",
    "straggler": "bad",
}

#: (TaskEnd field, phase name) in the order phases occur in a task.
TASK_PHASES: Tuple[Tuple[str, str], ...] = tuple(
    (field_name, phase) for field_name, phase, _ in TASK_PHASE_TABLE)

#: Event types drawn as one instant marker: type -> (track, category,
#: scope, name, arg fields).  ``track`` names the event attribute holding
#: the worker whose process the marker lands on, or is a driver tid;
#: ``arg fields`` are copied off the event into the marker's ``args``.
#: Types absent from here and from ``_HANDLERS`` leave the timeline alone.
_INSTANTS: Dict[Type[Event], Tuple[Union[str, int], str, str,
                                   Callable[[Any], str], Tuple[str, ...]]] = {
    BlockEvicted: ("worker_id", "eviction", "t",
                   lambda e: f"evict rdd_{e.rdd_id}[{e.partition}]",
                   ("reason",)),
    CacheMiss: ("worker_id", "cache", "t",
                lambda e: f"miss rdd_{e.rdd_id}[{e.partition}]", ()),
    BrokerEvicted: ("worker_id", "broker", "t",
                    lambda e: f"broker evict rdd_{e.rdd_id}[{e.partition}]",
                    ("requested_by", "value")),
    BrokerMigrated: ("dst_worker", "broker", "t",
                     lambda e: f"broker migrate rdd_{e.rdd_id}[{e.partition}]",
                     ("src_worker", "size_bytes", "value")),
    BrokerPrefixHit: ("worker_id", "broker", "t",
                      lambda e: (f"prefix hit rdd_{e.rdd_id} <- "
                                 f"rdd_{e.served_rdd_id}[{e.partition}]"),
                      ("remote",)),
    FailureInjected: ("worker_id", "failure", "g",
                      lambda e: "worker failure",
                      ("lost_blocks", "lost_shuffle_outputs")),
    LineageRecovered: ("worker_id", "failure", "g",
                       lambda e: "lineage recovered", ("recovery_delay",)),
    TaskSpeculated: ("speculative_worker_id", "speculation", "t",
                     lambda e: f"speculate task {e.task_id}",
                     ("original_worker_id", "running_for",
                      "median_duration")),
    TaskRetried: ("worker_id", "retry", "t",
                  lambda e: f"retry task {e.task_id} (attempt {e.attempt})",
                  ("backoff", "reason")),
    ExecutorBlacklisted: ("worker_id", "blacklist", "g",
                          lambda e: "executor blacklisted",
                          ("stage_id", "failures", "until")),
    FetchFailed: ("worker_id", "failure", "g",
                  lambda e: f"fetch failed (shuffle {e.shuffle_id})",
                  ("task_id", "reason")),
    StageResubmitted: (2, "failure", "p",
                       lambda e: (f"resubmit stage {e.stage_id} "
                                  f"(attempt {e.attempt})"),
                       ("job_id", "shuffle_id", "reason")),
    WorkerProvisioned: ("worker_id", "elastic", "g",
                        lambda e: "worker provisioned",
                        ("cores", "ready_at", "spinup_seconds")),
    WorkerDecommissioned: ("worker_id", "elastic", "g",
                           lambda e: "worker decommissioned",
                           ("migrated_blocks", "dropped_blocks",
                            "drain_seconds")),
    BlocksMigrated: ("worker_id", "elastic", "t",
                     lambda e: f"migrated {e.num_blocks} blocks",
                     ("total_bytes", "migration_seconds")),
    JobShed: (1, "elastic", "p",
              lambda e: f"shed job {e.job_index}", ("pending_jobs",)),
    ScalingDecision: (3, "elastic", "p",
                      lambda e: f"{e.action} ({e.policy})",
                      ("delta", "alive_workers", "reason")),
    CheckpointWritten: (1, "checkpoint", "p",
                        lambda e: f"checkpoint rdd_{e.rdd_id}",
                        ("total_bytes",)),
    TenantJobShed: (SERVICE_TID, "service", "t",
                    lambda e: f"shed {e.tenant} job {e.job_index}",
                    ("tenant", "pending")),
    DatasetRegistered: (SERVICE_TID, "dataset", "t",
                        lambda e: (f"register {e.name} v{e.version}"
                                   + (" (dedup)" if e.deduped else "")),
                        ("tenant", "rdd_id", "deduped")),
    DatasetBranched: (SERVICE_TID, "dataset", "t",
                      lambda e: f"branch {e.source_name} -> {e.new_name}",
                      ("tenant", "source_version", "rdd_id")),
    DatasetDropped: (SERVICE_TID, "dataset", "t",
                     lambda e: f"drop {e.name} v{e.version}",
                     ("tenant", "deferred", "unpersisted")),
    PoolWeightsUpdated: (SERVICE_TID, "service", "t",
                         lambda e: f"pool {e.pool} w={e.weight:g}",
                         ("min_share",)),
    TenantSloAlert: (SERVICE_TID, "slo", "g",
                     lambda e: (f"SLO {'clear' if e.cleared else 'alert'} "
                                f"{e.tenant} {e.metric}"),
                     ("observed", "target", "burn_rate")),
}

#: TaskEnd fields copied into a task span's ``args``.
_TASK_ARGS = ("job_id", "stage_id", "task_id", "partition", "locality",
              "gc_time", "compute_time", "attempt", "speculative", "status")

_SLOT_EPS = TIME_EPS


def assign_slots(
    spans: Sequence[Tuple[float, float]],
) -> List[int]:
    """Greedily pack ``(start, end)`` spans onto slots.

    Spans are processed in the order given (sort by start first for the
    canonical packing); each goes to the lowest-numbered slot that is
    free at its start, opening a new slot when none is.  Mirrors the
    worker's earliest-free-slot bookkeeping, so the reconstructed lanes
    match the simulated core count.
    """
    slot_free: List[float] = []
    assignment: List[int] = []
    for start, end in spans:
        placed = None
        for slot, free in enumerate(slot_free):
            if free <= start + _SLOT_EPS:
                placed = slot
                break
        if placed is None:
            placed = len(slot_free)
            slot_free.append(0.0)
        slot_free[placed] = max(end, start)
        assignment.append(placed)
    return assignment


class ChromeTraceExporter:
    """EventBus listener that accumulates events and renders the trace."""

    def __init__(self) -> None:
        self._tasks: List[TaskEnd] = []
        self._instants: List[Dict[str, Any]] = []
        self._driver_spans: List[Dict[str, Any]] = []
        #: (opener type, ids...) -> the JobStart / StageSubmitted /
        #: QueryPlanned still waiting for its closing event.
        self._open: Dict[Tuple[Any, ...], Any] = {}
        #: counter track -> (time, value) samples in event order.
        self._counters: Dict[str, List[Tuple[float, float]]] = {
            track: [] for track in _COUNTERS}
        self._cache_bytes = 0.0
        self._cached_block_sizes: Dict[Tuple[int, int, int], float] = {}

    # ---- listener ----------------------------------------------------------

    def on_event(self, event: Event) -> None:
        kind = type(event)
        handler = _HANDLERS.get(kind)
        if handler is not None:
            handler(self, event)
        row = _INSTANTS.get(kind)
        if row is not None:
            track, cat, scope, name, arg_fields = row
            if isinstance(track, str):
                pid, tid = getattr(event, track) + 1, 0
            else:
                pid, tid = DRIVER_PID, track
            self._instants.append({
                "name": name(event), "ph": "i", "ts": event.time * _US,
                "pid": pid, "tid": tid, "s": scope, "cat": cat,
                "args": {f: getattr(event, f) for f in arg_fields},
            })

    def _span(self, name: str, cat: str, begin: float, end: float,
              tid: int, args: Dict[str, Any]) -> None:
        self._driver_spans.append({
            "name": name, "cat": cat, "ph": "X", "ts": begin * _US,
            "dur": max(end - begin, 0.0) * _US,
            "pid": DRIVER_PID, "tid": tid, "args": args})

    def _hold(self, event: Event, *ids: int) -> None:
        """Keep an opener for its closer (the latest under an id wins)."""
        self._open[(type(event), *ids)] = event

    def _on_job_end(self, event: JobEnd) -> None:
        start = self._open.pop((JobStart, event.job_id), None)
        self._span(
            name=f"job {event.job_id}"
                 + (f": {start.description}" if start is not None
                    and start.description else ""),
            cat="job", begin=start.time if start is not None else event.time,
            end=event.time, tid=1,
            args={"job_id": event.job_id, "num_stages": event.num_stages,
                  "skipped_stages": event.skipped_stages})

    def _on_stage_completed(self, event: StageCompleted) -> None:
        start = self._open.pop(
            (StageSubmitted, event.job_id, event.stage_id), None)
        self._span(
            name=f"stage {event.stage_id}"
                 + (" (skipped)" if event.skipped else ""),
            cat="stage",
            begin=start.time if start is not None else event.time,
            end=event.time, tid=2,
            args={"job_id": event.job_id, "stage_id": event.stage_id,
                  "skipped": event.skipped})

    def _on_query_completed(self, event: QueryCompleted) -> None:
        planned = self._open.pop((QueryPlanned, event.query_id), None)
        self._span(
            name=f"query {event.query_id}", cat="sql",
            begin=event.time - event.duration, end=event.time, tid=SQL_TID,
            args={"query_id": event.query_id, "rows": event.rows,
                  "plan": planned.description if planned else "",
                  "pushed_filters": planned.pushed_filters if planned else 0,
                  "pruned_columns": planned.pruned_columns if planned else 0,
                  "elided_exchanges":
                      planned.elided_exchanges if planned else 0})

    def _on_query_failed(self, event: QueryFailed) -> None:
        planned = self._open.pop((QueryPlanned, event.query_id), None)
        self._span(
            name=f"query {event.query_id} [failed]", cat="sql",
            begin=planned.time if planned is not None else event.time,
            end=event.time, tid=SQL_TID,
            args={"query_id": event.query_id, "error": event.error})

    def _on_block_cached(self, event: BlockCached) -> None:
        key = (event.worker_id, event.rdd_id, event.partition)
        previous = self._cached_block_sizes.get(key, 0.0)
        self._cached_block_sizes[key] = event.size_bytes
        self._cache_bytes += event.size_bytes - previous
        self._counters["cache bytes"].append((event.time, self._cache_bytes))

    def _on_block_evicted(self, event: BlockEvicted) -> None:
        key = (event.worker_id, event.rdd_id, event.partition)
        size = self._cached_block_sizes.pop(key, 0.0)
        if size:
            self._cache_bytes -= size
            self._counters["cache bytes"].append(
                (event.time, self._cache_bytes))

    def _on_broker_action(self, event: Event) -> None:
        series = self._counters["broker actions"]
        series.append((event.time, len(series) + 1))

    def _on_membership(self, event: Any) -> None:
        self._counters["cluster size"].append(
            (event.time, event.alive_workers))

    # ---- rendering ---------------------------------------------------------

    def to_trace(self) -> Dict[str, Any]:
        """Build the Trace Event Format container: metadata, driver
        spans, tasks by worker, instants, then the counter tracks."""
        lanes = self.slot_assignment()
        drawn = {record["tid"]
                 for record in self._driver_spans + self._instants
                 if record["pid"] == DRIVER_PID} | {1, 2}
        trace_events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": DRIVER_PID,
             "args": {"name": "driver"}}]
        for tid, name in _DRIVER_TRACKS.items():
            if tid in drawn:
                trace_events.append({
                    "name": "thread_name", "ph": "M", "pid": DRIVER_PID,
                    "tid": tid, "args": {"name": name}})
        for worker_id, assigned in lanes.items():
            pid = worker_id + 1
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": pid,
                "args": {"name": f"worker {worker_id}"}})
            for slot in range(max(slot for _, slot in assigned) + 1):
                trace_events.append({
                    "name": "thread_name", "ph": "M", "pid": pid,
                    "tid": slot, "args": {"name": f"slot {slot}"}})
        trace_events.extend(self._driver_spans)
        for assigned in lanes.values():
            for task, slot in assigned:
                trace_events.extend(self._task_events(task, slot))
        trace_events.extend(dict(instant) for instant in self._instants)
        for track, key in _COUNTERS.items():
            for time, value in self._counters[track]:
                trace_events.append({
                    "name": track, "ph": "C", "ts": time * _US,
                    "pid": DRIVER_PID, "args": {key: value}})
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def export(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_trace(), fh)
        return path

    def slot_assignment(self) -> Dict[int, List[Tuple[TaskEnd, int]]]:
        """Per worker, ascending: ``(task, slot)`` pairs in start order —
        the one grouping, sort and lane packing both the trace (slot
        metadata, task spans) and the CLI's ASCII gantt read."""
        by_worker: Dict[int, List[TaskEnd]] = {}
        for task in self._tasks:
            by_worker.setdefault(task.worker_id, []).append(task)
        out: Dict[int, List[Tuple[TaskEnd, int]]] = {}
        for worker_id, tasks in sorted(by_worker.items()):
            tasks.sort(key=lambda t: (t.time - t.duration, t.time))
            slots = assign_slots(
                [(t.time - t.duration, t.time) for t in tasks]
            )
            out[worker_id] = list(zip(tasks, slots))
        return out

    def _task_events(self, task: TaskEnd, slot: int) -> List[Dict[str, Any]]:
        pid = task.worker_id + 1
        start = task.time - task.duration
        suffix = " [spec]" if task.speculative else ""
        if task.status != "success":
            suffix += f" [{task.status}]"
        events = [{
            "name": f"task {task.task_id} "
                    f"(s{task.stage_id} p{task.partition}){suffix}",
            "cat": "task", "ph": "X", "ts": start * _US,
            "dur": max(task.duration, 0.0) * _US, "pid": pid, "tid": slot,
            "args": {f: getattr(task, f) for f in _TASK_ARGS},
        }]
        cursor = start
        for field_name, phase in TASK_PHASES:
            seconds = getattr(task, field_name)
            if seconds <= 0:
                continue
            events.append({
                "name": phase, "cat": "phase", "ph": "X",
                "ts": cursor * _US, "dur": seconds * _US,
                "pid": pid, "tid": slot,
                "cname": PHASE_COLORS[phase],
                "args": {"task_id": task.task_id},
            })
            cursor += seconds
        return events


#: Event type -> the exporter state it updates (task list, open spans,
#: driver spans, counters).  Independent of ``_INSTANTS``: an event may
#: update state, draw a marker, or both.
_HANDLERS: Dict[Type[Event], Callable[[ChromeTraceExporter, Any], None]] = {
    TaskEnd: lambda self, e: self._tasks.append(e),
    JobStart: lambda self, e: self._hold(e, e.job_id),
    StageSubmitted: lambda self, e: self._hold(e, e.job_id, e.stage_id),
    QueryPlanned: lambda self, e: self._hold(e, e.query_id),
    JobEnd: ChromeTraceExporter._on_job_end,
    StageCompleted: ChromeTraceExporter._on_stage_completed,
    QueryCompleted: ChromeTraceExporter._on_query_completed,
    QueryFailed: ChromeTraceExporter._on_query_failed,
    BlockCached: ChromeTraceExporter._on_block_cached,
    BlockEvicted: ChromeTraceExporter._on_block_evicted,
    BrokerEvicted: ChromeTraceExporter._on_broker_action,
    BrokerMigrated: ChromeTraceExporter._on_broker_action,
    BrokerPrefixHit: ChromeTraceExporter._on_broker_action,
    WorkerProvisioned: ChromeTraceExporter._on_membership,
    WorkerDecommissioned: ChromeTraceExporter._on_membership,
}
