"""repro.obs — event-bus tracing and utilization observability.

The engine's SparkListener analogue: every
:class:`~repro.engine.context.StarkContext` owns an
:class:`~repro.obs.bus.EventBus` onto which the DAG/task schedulers,
block managers, cache, shuffle and failure layers post typed
:mod:`~repro.obs.events` stamped with simulated time.  Pluggable
listeners turn the stream into artifacts:

* :class:`JsonlEventLog` — Spark-style event-log JSONL;
* :class:`ChromeTraceExporter` — Perfetto-loadable trace (one track per
  worker slot, colour-phased task spans);
* :class:`UtilizationSampler` — slot-occupancy and cache bytes/blocks
  timelines.

With no listeners subscribed the bus is inert: emission sites check
``bus.active`` first, so tracing-off runs build zero events and the
simulation is bit-identical either way.

``observe_to_dir`` is the one-call integration: any context created
inside the ``with`` block drops ``events-N.jsonl`` + ``trace-N.json``
into the directory — the bench harness and the ``repro --trace-dir``
CLI flag use it.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, List, TYPE_CHECKING, Union

from .bus import EventBus
from .events import (
    BlockCached,
    BlockEvicted,
    BrokerEvicted,
    BrokerMigrated,
    BrokerPrefixHit,
    CacheHit,
    CacheMiss,
    CheckpointWritten,
    DatasetBranched,
    DatasetDropped,
    DatasetRegistered,
    EVENT_SCHEMA,
    EVENT_TYPES,
    Event,
    ExecutorBlacklisted,
    FailureInjected,
    FetchFailed,
    JobEnd,
    JobStart,
    LineageRecovered,
    PoolWeightsUpdated,
    QueryCompleted,
    QueryFailed,
    QueryPlanned,
    ShuffleFetch,
    StageCompleted,
    StageResubmitted,
    StageSubmitted,
    TaskEnd,
    TaskRetried,
    TaskStart,
    TenantJobAdmitted,
    TenantJobCompleted,
    TenantJobShed,
    TenantJobSubmitted,
    TenantSloAlert,
    event_from_dict,
    validate_event_dict,
)
from .critical_path import (
    BlameSegment,
    CATEGORIES,
    CriticalPathReport,
    ascii_blame_chart,
    critical_paths,
    critical_span_trace_events,
)
from .invariants import check_event_invariants
from .listeners import (
    EventCollector,
    JsonlEventLog,
    format_event,
    read_event_log,
    validate_event_log,
)
from .sampler import UtilizationSampler
from .spans import JobSpan, StageSpan, TaskSpan, build_spans
from .trace import ChromeTraceExporter, assign_slots, write_trace

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.context import StarkContext

ContextObserver = Callable[["StarkContext"], None]

#: Hooks invoked with every newly constructed StarkContext, letting
#: tooling attach listeners to contexts it never sees being created
#: (the bench harness builds contexts deep inside experiment drivers).
_context_observers: List[ContextObserver] = []


def add_context_observer(observer: ContextObserver) -> ContextObserver:
    _context_observers.append(observer)
    return observer


def remove_context_observer(observer: ContextObserver) -> bool:
    try:
        _context_observers.remove(observer)
        return True
    except ValueError:
        return False


def notify_context_created(context: "StarkContext") -> None:
    """Called by ``StarkContext.__init__``; applies registered observers."""
    for observer in list(_context_observers):
        observer(context)


@contextmanager
def observe_to_dir(out_dir: Union[str, Path]) -> Iterator[Path]:
    """Attach an event log + trace exporter to every context created in
    the block; on exit, ``events-N.jsonl`` and ``trace-N.json`` are
    finalized under ``out_dir`` (N counts contexts in creation order).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    counter = itertools.count()
    sessions: List[tuple] = []

    def attach(context: "StarkContext") -> None:
        n = next(counter)
        event_log = JsonlEventLog(out / f"events-{n}.jsonl")
        tracer = ChromeTraceExporter()
        context.event_bus.subscribe(event_log)
        context.event_bus.subscribe(tracer)
        sessions.append((n, event_log, tracer))

    add_context_observer(attach)
    try:
        yield out
    finally:
        remove_context_observer(attach)
        for n, event_log, tracer in sessions:
            event_log.close()
            tracer.export(out / f"trace-{n}.json")


__all__ = [
    "BlameSegment",
    "BlockCached",
    "BlockEvicted",
    "BrokerEvicted",
    "BrokerMigrated",
    "BrokerPrefixHit",
    "CATEGORIES",
    "CacheHit",
    "CacheMiss",
    "CheckpointWritten",
    "ChromeTraceExporter",
    "CriticalPathReport",
    "DatasetBranched",
    "DatasetDropped",
    "DatasetRegistered",
    "EVENT_SCHEMA",
    "EVENT_TYPES",
    "Event",
    "EventBus",
    "EventCollector",
    "ExecutorBlacklisted",
    "FailureInjected",
    "FetchFailed",
    "JobEnd",
    "JobSpan",
    "JobStart",
    "JsonlEventLog",
    "LineageRecovered",
    "PoolWeightsUpdated",
    "QueryCompleted",
    "QueryFailed",
    "QueryPlanned",
    "ShuffleFetch",
    "StageCompleted",
    "StageResubmitted",
    "StageSpan",
    "StageSubmitted",
    "TaskEnd",
    "TaskRetried",
    "TaskSpan",
    "TaskStart",
    "TenantJobAdmitted",
    "TenantJobCompleted",
    "TenantJobShed",
    "TenantJobSubmitted",
    "TenantSloAlert",
    "UtilizationSampler",
    "add_context_observer",
    "ascii_blame_chart",
    "assign_slots",
    "build_spans",
    "check_event_invariants",
    "critical_paths",
    "critical_span_trace_events",
    "event_from_dict",
    "format_event",
    "notify_context_created",
    "observe_to_dir",
    "read_event_log",
    "remove_context_observer",
    "validate_event_dict",
    "validate_event_log",
    "write_trace",
]
