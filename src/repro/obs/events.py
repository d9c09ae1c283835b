"""Typed events of the simulated engine (the SparkListener taxonomy).

Every interesting state change in the engine — job/stage/task lifecycle,
cache traffic, shuffle fetches, checkpoints, failures — is described by
one frozen dataclass below, stamped with the
:class:`~repro.cluster.events.SimClock` time at which it happened.
Components post instances onto the context's
:class:`~repro.obs.bus.EventBus`; listeners (JSONL log, Chrome-trace
exporter, utilization sampler, …) consume them.

The module also derives a machine-checkable **schema** from the
dataclasses (:data:`EVENT_SCHEMA`): a mapping of event-type name to the
field names and primitive types a serialized event must carry.
:func:`validate_event_dict` checks one JSONL record against it, which is
what ``repro trace`` and the CI smoke job use to catch silent
event-shape drift.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter
from typing import Any, Dict, List, Tuple, Type

#: Registry of event classes by type name (class name), filled by
#: ``Event.__init_subclass__``.
EVENT_TYPES: Dict[str, Type["Event"]] = {}


@dataclass(frozen=True)
class Event:
    """Base event: everything carries the simulated time it happened."""

    time: float

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        EVENT_TYPES[cls.__name__] = cls  # type: ignore[assignment]

    @property
    def type(self) -> str:
        return type(self).__name__

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-serializable form: ``{"type": ..., <fields>}``."""
        cls = type(self)
        out: Dict[str, Any] = {"type": cls.__name__}
        for name in _field_names(cls):
            out[name] = getattr(self, name)
        return out


@lru_cache(maxsize=None)
def _field_names(cls: Type[Event]) -> Tuple[str, ...]:
    """An event class's field names in declaration order, computed once
    (``dataclasses.fields`` rebuilds its tuple on every call)."""
    return tuple(f.name for f in fields(cls))


# ---- job / stage / task lifecycle -----------------------------------------

@dataclass(frozen=True)
class JobStart(Event):
    job_id: int
    description: str


@dataclass(frozen=True)
class JobEnd(Event):
    job_id: int
    duration: float
    num_stages: int
    skipped_stages: int


@dataclass(frozen=True)
class StageSubmitted(Event):
    job_id: int
    stage_id: int
    num_tasks: int
    is_shuffle_map: bool


@dataclass(frozen=True)
class StageCompleted(Event):
    job_id: int
    stage_id: int
    skipped: bool
    duration: float


@dataclass(frozen=True)
class TaskStart(Event):
    job_id: int
    stage_id: int
    task_id: int
    partition: int
    worker_id: int
    locality: str
    attempt: int = 0


@dataclass(frozen=True)
class TaskEnd(Event):
    """Task completion; ``time`` is the finish time, phase fields carry
    the full simulated cost breakdown (what the trace exporter renders
    as coloured sub-spans)."""

    job_id: int
    stage_id: int
    task_id: int
    partition: int
    worker_id: int
    locality: str
    duration: float
    launch_overhead: float
    cache_read_time: float
    compute_time: float
    shuffle_fetch_local_time: float
    shuffle_fetch_remote_time: float
    shuffle_write_time: float
    checkpoint_read_time: float
    source_read_time: float
    gc_time: float
    attempt: int = 0
    #: "success" | "failed" | "fetch_failed".
    status: str = "success"


#: (TaskEnd field, trace phase, blame category) in the order phases occur
#: in a task — the one declaration the trace exporter's ``TASK_PHASES``
#: and the critical path's ``PHASE_CATEGORY`` are derived from.
TASK_PHASE_TABLE: Tuple[Tuple[str, str, str], ...] = (
    ("launch_overhead", "launch", "launch"),
    ("cache_read_time", "cache_read", "read"),
    ("source_read_time", "source_read", "read"),
    ("checkpoint_read_time", "checkpoint_read", "read"),
    ("shuffle_fetch_local_time", "shuffle_fetch", "fetch"),
    ("shuffle_fetch_remote_time", "shuffle_fetch", "fetch"),
    ("compute_time", "compute", "compute"),
    ("shuffle_write_time", "shuffle_write", "shuffle_write"),
    ("gc_time", "gc", "gc"),
)


# ---- cache traffic ---------------------------------------------------------

@dataclass(frozen=True)
class BlockCached(Event):
    worker_id: int
    rdd_id: int
    partition: int
    size_bytes: float


@dataclass(frozen=True)
class BlockEvicted(Event):
    """A block left a store: ``reason`` is one of ``"capacity"`` (the
    eviction policy chose a victim), ``"explicit"`` (unpersist),
    ``"worker_lost"``, ``"migrated"`` (a broker migration moved it to
    another executor, where a matching
    ``BlockCached`` follows), ``"quota"`` (intra-tenant quota
    displacement), or ``"broker"`` (the cluster-wide cache broker
    evicted it to host a more valuable migrated block)."""

    worker_id: int
    rdd_id: int
    partition: int
    reason: str


@dataclass(frozen=True)
class CacheHit(Event):
    worker_id: int
    rdd_id: int
    partition: int
    size_bytes: float


@dataclass(frozen=True)
class CacheMiss(Event):
    worker_id: int
    rdd_id: int
    partition: int


# ---- cluster-wide cache broker (StarkConfig.cache_broker) ------------------

@dataclass(frozen=True)
class BrokerEvicted(Event):
    """The broker evicted a remote block (it was the cluster-wide
    cheapest) so a pressured worker's victim could migrate into the
    freed space.  ``requested_by`` is the pressured worker; ``value`` is
    the evicted block's broker score (a matching ``BlockEvicted`` with
    reason ``"broker"`` accompanies it)."""

    worker_id: int
    rdd_id: int
    partition: int
    requested_by: int
    value: float


@dataclass(frozen=True)
class BrokerMigrated(Event):
    """The broker moved a pressured store's victim block to another
    worker instead of evicting it (``BlockEvicted``/``"migrated"`` on
    the source and a ``BlockCached`` on the destination accompany it)."""

    rdd_id: int
    partition: int
    src_worker: int
    dst_worker: int
    size_bytes: float
    value: float


@dataclass(frozen=True)
class BrokerPrefixHit(Event):
    """A partition of ``rdd_id`` was served from the cached blocks of
    ``served_rdd_id`` — a *different* RDD with a structurally identical
    lineage prefix (cross-job sharing).  ``remote`` marks reads that
    paid serde + network for a replica on another worker."""

    worker_id: int
    rdd_id: int
    served_rdd_id: int
    partition: int
    remote: bool


# ---- shuffle / checkpoint --------------------------------------------------

@dataclass(frozen=True)
class ShuffleFetch(Event):
    """One reduce task fetching all its map-output buckets."""

    worker_id: int
    shuffle_id: int
    reduce_id: int
    local_bytes: float
    remote_bytes: float
    local_seconds: float
    remote_seconds: float


@dataclass(frozen=True)
class CheckpointWritten(Event):
    rdd_id: int
    total_bytes: float
    num_partitions: int


# ---- failures --------------------------------------------------------------

@dataclass(frozen=True)
class FailureInjected(Event):
    worker_id: int
    lost_blocks: int
    lost_shuffle_outputs: int


@dataclass(frozen=True)
class LineageRecovered(Event):
    worker_id: int
    baseline_delay: float
    recovery_delay: float


# ---- task-level fault tolerance ---------------------------------------------

@dataclass(frozen=True)
class TaskRetried(Event):
    """A task attempt failed on ``worker_id``; the task re-enters the
    pending queue after ``backoff`` seconds of exponential backoff."""

    job_id: int
    stage_id: int
    task_id: int
    partition: int
    worker_id: int
    attempt: int
    backoff: float
    reason: str


@dataclass(frozen=True)
class ExecutorBlacklisted(Event):
    """An executor crossed a failure threshold and is excluded from
    offers until ``until`` (``stage_id`` is -1 for the app-level
    blacklist, otherwise the per-stage one)."""

    worker_id: int
    stage_id: int
    failures: int
    until: float


@dataclass(frozen=True)
class FetchFailed(Event):
    """A reduce task could not fetch a map output from ``worker_id``;
    escalates to the DAG scheduler for parent-stage resubmission."""

    job_id: int
    stage_id: int
    task_id: int
    shuffle_id: int
    map_partition: int
    worker_id: int
    reason: str


@dataclass(frozen=True)
class StageResubmitted(Event):
    """A fetch failure forced the stage to re-run (attempt ``attempt``)
    after regenerating the lost parent map outputs."""

    job_id: int
    stage_id: int
    attempt: int
    shuffle_id: int
    reason: str


# ---- multi-tenant service --------------------------------------------------

@dataclass(frozen=True)
class TenantJobSubmitted(Event):
    """A tenant handed a job to the dataset service (pre-admission)."""

    tenant: str
    job_index: int


@dataclass(frozen=True)
class TenantJobAdmitted(Event):
    """Admission control accepted the job into the tenant's pool queue
    (``queued`` is the pool's backlog after enqueue)."""

    tenant: str
    job_index: int
    queued: int


@dataclass(frozen=True)
class TenantJobShed(Event):
    """Per-tenant admission control rejected the job: the tenant already
    had ``pending`` jobs queued or running against its bound."""

    tenant: str
    job_index: int
    pending: int


@dataclass(frozen=True)
class DatasetRegistered(Event):
    """A named/versioned dataset entered the registry.  ``deduped`` marks
    a lineage-fingerprint hit: the handle aliases an RDD some earlier
    registration already owns, so its cached blocks are shared."""

    tenant: str
    name: str
    version: int
    rdd_id: int
    deduped: bool


@dataclass(frozen=True)
class DatasetBranched(Event):
    """``new_name@1`` forked from ``source_name@source_version`` sharing
    the same underlying RDD (and therefore its cached blocks)."""

    tenant: str
    source_name: str
    source_version: int
    new_name: str
    rdd_id: int


@dataclass(frozen=True)
class DatasetDropped(Event):
    """A registry version was dropped.  ``deferred`` means live handles
    still pin the RDD, so the actual unpersist waits for the last
    release; ``unpersisted`` means the blocks were freed now."""

    tenant: str
    name: str
    version: int
    rdd_id: int
    deferred: bool
    unpersisted: bool


@dataclass(frozen=True)
class PoolWeightsUpdated(Event):
    """A scheduling pool's fair-share parameters changed (also posted
    once at pool creation)."""

    pool: str
    weight: float
    min_share: int


@dataclass(frozen=True)
class TenantJobCompleted(Event):
    """A dispatched tenant job finished; ``delay`` is the response time
    (finish - arrival) the SLO monitor windows over."""

    tenant: str
    job_index: int
    arrival: float
    finish: float
    delay: float


@dataclass(frozen=True)
class TenantSloAlert(Event):
    """A tenant's rolling delay window is burning through its SLO error
    budget: ``burn_rate`` is the violating fraction of the window divided
    by the budgeted fraction (0.05 for a p95 target, 0.01 for p99) —
    1.0 means exactly on budget, ``>= burn_threshold`` fires the alert.
    ``cleared`` marks the recovery edge (burn dropped back under 1.0)."""

    tenant: str
    metric: str
    observed: float
    target: float
    burn_rate: float
    window_jobs: int
    breaching_jobs: int
    cleared: bool = False


# ---- SQL / DataFrame queries ----------------------------------------------

@dataclass(frozen=True)
class QueryPlanned(Event):
    """A DataFrame/SQL query finished planning: the logical plan was
    optimized (``pushed_filters`` predicates sank into scans,
    ``pruned_columns`` table columns will not be read) and lowered to
    RDDs (``exchanges`` shuffles planned, ``elided_exchanges`` skipped
    because inputs were already co-partitioned)."""

    query_id: int
    description: str
    num_operators: int
    pushed_filters: int
    pruned_columns: int
    exchanges: int
    elided_exchanges: int


@dataclass(frozen=True)
class QueryCompleted(Event):
    """The query's job(s) finished; ``rows`` is the result cardinality
    and ``duration`` the simulated seconds from submission."""

    query_id: int
    rows: int
    duration: float


@dataclass(frozen=True)
class QueryFailed(Event):
    """Planning or execution raised; ``error`` is the exception text."""

    query_id: int
    error: str


# ---- schema ----------------------------------------------------------------

_PRIMITIVES: Dict[str, Tuple[type, ...]] = {
    "float": (int, float),
    "int": (int,),
    "str": (str,),
    "bool": (bool,),
}


def _field_types(cls: Type[Event]) -> Dict[str, Tuple[type, ...]]:
    out: Dict[str, Tuple[type, ...]] = {}
    for f in fields(cls):
        type_name = f.type if isinstance(f.type, str) else f.type.__name__
        out[f.name] = _PRIMITIVES[type_name]
    return out


#: type name -> {field name -> accepted python types}.  Derived from the
#: dataclasses so code and schema cannot drift apart.
EVENT_SCHEMA: Dict[str, Dict[str, Tuple[type, ...]]] = {
    name: _field_types(cls) for name, cls in EVENT_TYPES.items()
}


def validate_event_dict(record: Dict[str, Any]) -> List[str]:
    """Check one deserialized event record against the schema.

    Returns a list of human-readable problems (empty when valid):
    unknown type, missing or extra fields, or wrong primitive types.
    """
    problems: List[str] = []
    type_name = record.get("type")
    if not isinstance(type_name, str) or type_name not in EVENT_SCHEMA:
        return [f"unknown event type: {type_name!r}"]
    schema = EVENT_SCHEMA[type_name]
    for field_name, accepted in schema.items():
        if field_name not in record:
            problems.append(f"{type_name}: missing field {field_name!r}")
            continue
        value = record[field_name]
        # bool is an int subclass; only accept it where the schema says bool.
        if isinstance(value, bool) and bool not in accepted:
            problems.append(
                f"{type_name}.{field_name}: expected "
                f"{'/'.join(t.__name__ for t in accepted)}, got bool"
            )
        elif not isinstance(value, accepted):
            problems.append(
                f"{type_name}.{field_name}: expected "
                f"{'/'.join(t.__name__ for t in accepted)}, "
                f"got {type(value).__name__}"
            )
    extras = set(record) - set(schema) - {"type"}
    for extra in sorted(extras):
        problems.append(f"{type_name}: unexpected field {extra!r}")
    return problems


#: Constructor arguments after ``time``: ``TaskMetrics`` carries every
#: ``TaskStart``/``TaskEnd`` field under the event's own field name.
_TASK_START_ARGS = attrgetter(*(f.name for f in fields(TaskStart)[1:]))
_TASK_END_ARGS = attrgetter(*(f.name for f in fields(TaskEnd)[1:]))


def task_events_from_metrics(tm: Any) -> Tuple[TaskStart, TaskEnd]:
    """Build the start/end pair for one finished task attempt.

    Duck-typed over :class:`~repro.engine.metrics.TaskMetrics` so the
    event layer stays import-free of the engine.
    """
    return (TaskStart(tm.start_time, *_TASK_START_ARGS(tm)),
            TaskEnd(tm.finish_time, *_TASK_END_ARGS(tm)))


def event_from_dict(record: Dict[str, Any]) -> Event:
    """Rebuild a typed event from its ``to_dict`` form (raises on an
    invalid record — run :func:`validate_event_dict` first for
    diagnostics)."""
    data = dict(record)
    type_name = data.pop("type")
    return EVENT_TYPES[type_name](**data)
