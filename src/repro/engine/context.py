"""StarkContext: the driver program's handle to the whole system.

Mirrors ``SparkContext`` plus Stark's extensions: it owns the simulated
cluster, the DAG/task schedulers, the block manager, the shuffle tracker,
and — when enabled — Stark's LocalityManager, GroupManager,
ReplicationManager and CheckpointOptimizer.  A :class:`StarkConfig`
selects which of the paper's features are active, so one code path serves
both the Spark baselines and the Stark variants of the evaluation.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from ..cache.manager import CacheManager
from ..cache.policy import DEFAULTS as CACHE_DEFAULTS
from ..cluster.cluster import Cluster
from ..cluster.cost_model import CostModel
from ..obs import notify_context_created
from ..obs.bus import EventBus
from ..obs.events import (
    BlockEvicted,
    CheckpointWritten,
    JobEnd,
    JobStart,
    task_events_from_metrics,
)
from .block_manager import BlockManagerMaster
from .checkpoint import REPLICATION, CheckpointStore
from .compute import EvalContext, RDDStats
from .dag_scheduler import DAGScheduler
from .metrics import MetricsCollector
from .partitioner import Partitioner
from .shuffle import MapOutputTracker
from .sources import GeneratedRDD, ParallelCollectionRDD, TextFileRDD
from .task_scheduler import DefaultRemotePolicy, TaskScheduler

if TYPE_CHECKING:  # pragma: no cover
    from .rdd import RDD
    from .task import Task

#: Fraction of each worker's memory its block cache may hold (Spark 1.x's
#: ``spark.storage.memoryFraction`` default).
STORAGE_MEMORY_FRACTION = 0.6


@dataclass
class StarkConfig:
    """Feature switches and tunables (the paper's configuration knobs).

    ``locality_enabled`` is ``spark.scheduler.localityEnabled`` (§III-E);
    the group-size bounds are ``spark.locality.max/minGroupMemSize``
    (§III-C2/§III-E).
    """

    #: Enable the LocalityManager (co-locality, §III-B).
    locality_enabled: bool = True
    #: Enable Minimum-Contention-First remote scheduling (§III-C3).
    mcf_enabled: bool = True
    #: Enable contention-aware replication bookkeeping (§III-C3).
    replication_enabled: bool = True
    #: Upper bound on a collection partition group's memory footprint
    #: before it splits (bytes).
    max_group_mem_size: float = 512e6
    #: Lower bound under which sibling groups merge (bytes).
    min_group_mem_size: float = 32e6
    #: How many most-recent RDDs count toward group sizes (§III-C2).
    group_size_window: int = 6
    #: Delay-scheduling locality wait (seconds).
    locality_wait: float = 0.1
    #: Eviction policy of the executor block stores: one of
    #: ``repro.cache.POLICY_NAMES`` ("lru", "fifo", "lrc", "cost").
    #: Defaults follow ``repro.cache.DEFAULTS`` so the CLI can select a
    #: policy globally for every experiment.
    cache_policy: str = field(default_factory=lambda: CACHE_DEFAULTS.policy)

    # -- task-level fault tolerance (see docs/FAULT_TOLERANCE.md) ---------

    #: Abort the job after this many failed attempts of one task
    #: (``spark.task.maxFailures``).
    max_task_failures: int = 4
    #: Base of the exponential retry backoff (simulated seconds).
    task_retry_backoff: float = 0.5
    #: Multiplicative jitter fraction on the backoff (0 disables).
    task_retry_jitter: float = 0.2
    #: Abort the job after this many attempts of one stage
    #: (fetch-failure resubmissions; ``spark.stage.maxConsecutiveAttempts``).
    max_stage_attempts: int = 4
    #: Failures of one stage's tasks on one executor before that executor
    #: is excluded from the stage's offers.
    max_failures_per_executor_stage: int = 2
    #: Total failures on one executor before it is excluded from all
    #: offers.
    max_failures_per_executor: int = 4
    #: Blacklist entries expire this many simulated seconds after
    #: tripping, restoring eligibility.
    blacklist_timeout: float = 60.0
    #: When True (default, matching the paper's persistent shuffle
    #: storage), dead executors' committed map outputs stay fetchable.
    #: When False, fetching from a dead/removed executor raises a
    #: FetchFailed and the DAG scheduler regenerates the outputs.
    external_shuffle_service: bool = True
    #: Cluster-wide cache broker (``repro.cache.broker``): eviction
    #: victims are chosen by a driver-side value ranking over *every*
    #: live block (``recompute_cost × cross_job_refcount / size``), a
    #: pressured store may migrate its victim into space freed on
    #: another worker, structurally identical lineage *prefixes* are
    #: served across jobs from one tenant's cached blocks.
    #: Off by default: classic per-executor eviction, which every
    #: committed benchmark baseline assumes.
    cache_broker: bool = False
    #: Per-attempt transient task failure probability.
    task_failure_prob: float = 0.0
    #: Per-remote-fetch transient failure probability.
    fetch_failure_prob: float = 0.0

    # -- multi-tenant dataset service (see docs/SERVICE.md) ----------------

    #: Pool-ordering policy of the dataset service's dispatcher — one of
    #: ``repro.service.SCHEDULING_POLICY_NAMES`` ("fifo", "fair").
    scheduling_policy: str = "fifo"
    #: Default per-tenant cache quota in megabytes; 0 disables quota
    #: enforcement (tenants may override per-tenant at creation).
    tenant_quota_mb: float = 0.0

    def validate_service(self) -> None:
        """Reject nonsense service-layer knobs up front (CLI guard)."""
        from ..service.pools import SCHEDULING_POLICY_NAMES
        if self.scheduling_policy not in SCHEDULING_POLICY_NAMES:
            raise ValueError(
                f"unknown scheduling_policy {self.scheduling_policy!r}; "
                f"pick from {SCHEDULING_POLICY_NAMES}")
        if self.tenant_quota_mb < 0:
            raise ValueError(
                f"tenant_quota_mb must be >= 0: {self.tenant_quota_mb}")

    def validate_fault_tolerance(self) -> None:
        """Reject nonsense fault-tolerance knobs up front (CLI guard)."""
        if self.max_task_failures < 1:
            raise ValueError(
                f"max_task_failures must be at least 1: "
                f"{self.max_task_failures}")
        if self.max_stage_attempts < 1:
            raise ValueError(
                f"max_stage_attempts must be at least 1: "
                f"{self.max_stage_attempts}")
        if self.task_retry_backoff < 0 or self.task_retry_jitter < 0:
            raise ValueError("retry backoff/jitter must be >= 0")
        # BlacklistTracker trips when a count *reaches* its threshold
        # right after an increment, so a threshold of 0 never trips.
        for name in ("max_failures_per_executor_stage",
                     "max_failures_per_executor"):
            threshold = getattr(self, name)
            if threshold < 1:
                raise ValueError(f"{name} must be at least 1: {threshold}")
        if self.blacklist_timeout < 0:
            raise ValueError(
                f"blacklist_timeout must be >= 0: {self.blacklist_timeout}")
        for name in ("task_failure_prob", "fetch_failure_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability: {p}")


class StarkContext:
    """Driver context: create RDDs, run jobs, manage Stark components."""

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        config: Optional[StarkConfig] = None,
        cost_model: Optional[CostModel] = None,
        num_workers: int = 8,
        cores_per_worker: int = 4,
        memory_per_worker: float = 12e9,
    ) -> None:
        self.config = config or StarkConfig()
        self.config.validate_fault_tolerance()
        self.cluster = cluster or Cluster(
            num_workers=num_workers,
            cores_per_worker=cores_per_worker,
            memory_per_worker=memory_per_worker,
            cost_model=cost_model,
        )
        if cost_model is not None and cluster is not None:
            raise ValueError("pass cost_model via the Cluster when supplying one")
        self.cost_model = self.cluster.cost_model
        self.sizer = self.cluster.sizer
        self.metrics = MetricsCollector()
        #: SparkListener-style bus; inert (and cost-free) until a
        #: listener subscribes (see ``repro.obs``).
        self.event_bus = EventBus()
        self.map_output_tracker = MapOutputTracker()
        self.checkpoint_store = CheckpointStore()
        self.cache_manager = CacheManager(self)
        self.block_manager_master = BlockManagerMaster(
            self.cluster.worker_ids,
            capacity_for=lambda wid: self.cluster.get_worker(wid).memory_bytes
            * STORAGE_MEMORY_FRACTION,
            policy_factory=self.cache_manager.policy_for_worker,
        )
        self.block_manager_master.add_block_event_listener(
            self._on_block_removed
        )
        #: The cache manager's recompute-cost invalidation, bound once and
        #: shared by the block master and every :class:`RDDStats`.
        self._invalidate_cost = self.cache_manager.invalidate_cost
        self.block_manager_master.residency_listener = self._invalidate_cost
        #: Cluster-wide cache broker (``StarkConfig.cache_broker``);
        #: ``None`` with the knob off.
        self.cache_broker = self.cache_manager.broker
        if self.cache_broker is not None:
            self.cache_broker.attach(self.block_manager_master)

        # Stark components (imported here to keep engine importable alone).
        from ..core.group_manager import GroupManager
        from ..core.locality_manager import LocalityManager
        from ..core.mcf_scheduler import MinimumContentionFirstPolicy
        from ..core.replication import ReplicationManager

        self.locality_manager = LocalityManager(self)
        self.group_manager = GroupManager(self)
        self.replication_manager = ReplicationManager(self)
        remote_policy = (
            MinimumContentionFirstPolicy() if self.config.mcf_enabled
            else DefaultRemotePolicy()
        )
        self.task_scheduler = TaskScheduler(
            self, locality_wait=self.config.locality_wait,
            remote_policy=remote_policy,
        )
        self.dag_scheduler = DAGScheduler(self)

        self._rdd_ids = itertools.count()
        self._stage_ids = itertools.count()
        self._shuffle_ids = itertools.count()
        #: Every live RDD by id, held weakly: the application's handles
        #: decide how long an RDD (and the shuffles its lineage crosses)
        #: lives, not this index.
        self._rdds: "weakref.WeakValueDictionary[int, RDD]" = (
            weakref.WeakValueDictionary())
        #: RDDs marked ``cached`` and not yet unpersisted, held strongly
        #: (``RDD.cached`` / ``RDD.unpersist`` keep it): their blocks and
        #: the cache manager's recompute-cost walk over them outlive the
        #: caller's handle.
        self.cached_rdds: Dict[int, "RDD"] = {}
        self._rdd_stats: Dict[int, RDDStats] = {}
        notify_context_created(self)

    def _on_block_removed(self, worker_id: int, block_id, reason: str) -> None:
        """The driver's end of the block master's one removal channel."""
        if reason == "capacity":
            self.metrics.record_eviction()
        self.replication_manager.on_block_evicted(worker_id, block_id)
        if self.event_bus.active:
            self.event_bus.post(BlockEvicted(
                time=self.cluster.clock.now, worker_id=worker_id,
                rdd_id=block_id[0], partition=block_id[1], reason=reason,
            ))

    def register_worker(self, worker_id: int) -> None:
        """Wire a (newly added or restarted) cluster worker into the
        driver-side state: give it an empty block store sized by
        :data:`STORAGE_MEMORY_FRACTION`.  Idempotent — re-registering a
        worker whose store survived a kill/restart cycle is a no-op."""
        worker = self.cluster.get_worker(worker_id)
        self.block_manager_master.register_worker(
            worker_id,
            worker.memory_bytes * STORAGE_MEMORY_FRACTION,
            policy=self.cache_manager.policy_for_worker(worker_id),
        )
        if self.cache_broker is not None:
            self.cache_broker.on_worker_registered(worker_id)

    # ---- registries ------------------------------------------------------------

    def new_rdd_id(self) -> int:
        return next(self._rdd_ids)

    def register_rdd(self, rdd: "RDD") -> None:
        self._rdds[rdd.rdd_id] = rdd

    def get_rdd(self, rdd_id: int) -> "RDD":
        """The live RDD ``rdd_id``; ``KeyError`` once it was dropped."""
        return self._rdds[rdd_id]

    def rdd_stats(self, rdd_id: int) -> RDDStats:
        stats = self._rdd_stats.get(rdd_id)
        if stats is None:
            stats = RDDStats(rdd_id, _on_delay_raised=self._invalidate_cost)
            self._rdd_stats[rdd_id] = stats
        return stats

    @property
    def now(self) -> float:
        return self.cluster.clock.now

    # ---- RDD creation -------------------------------------------------------------

    def parallelize(
        self,
        data: Sequence,
        num_partitions: int = 8,
        partitioner: Optional[Partitioner] = None,
        name: str = "",
    ) -> ParallelCollectionRDD:
        return ParallelCollectionRDD(self, data, num_partitions,
                                     partitioner=partitioner, name=name)

    def text_file(
        self,
        line_generator: Callable[[int], List[str]],
        num_partitions: int = 8,
        name: str = "",
    ) -> TextFileRDD:
        """Open a (synthetic) text file; ``line_generator(pid)`` must
        deterministically produce the lines of partition ``pid``."""
        return TextFileRDD(self, line_generator, num_partitions, name=name)

    def generated(
        self,
        generator: Callable[[int], list],
        num_partitions: int,
        partitioner: Optional[Partitioner] = None,
        read_cost: str = "disk",
        name: str = "",
    ) -> GeneratedRDD:
        return GeneratedRDD(self, generator, num_partitions,
                            partitioner=partitioner, read_cost=read_cost,
                            name=name)

    # ---- job execution -----------------------------------------------------------------

    def run_job(
        self,
        rdd: "RDD",
        action: Callable[[list], Any],
        description: str = "",
        submit_time: Optional[float] = None,
    ) -> List[Any]:
        return self.dag_scheduler.run_job(rdd, action, description, submit_time)

    def on_remote_launch(self, task: "Task", worker_id: int, time: float) -> None:
        """Hook called by the task scheduler for every ANY-level launch."""
        if self.config.replication_enabled:
            self.replication_manager.on_remote_launch(task, worker_id, time)
        rdd = task.stage.rdd
        if rdd.namespace is not None and self.locality_manager.has_namespace(rdd.namespace):
            # A remote execution materializes the collection partition on
            # the new worker: register the replica (§III-B).
            self.locality_manager.add_replica(rdd.namespace, task.partition, worker_id)

    # ---- checkpointing --------------------------------------------------------------------

    def checkpoint_rdd(self, rdd: "RDD") -> float:
        """Materialize ``rdd`` and persist every partition to the reliable
        store (``RDD.forceCheckpoint``).  Returns total bytes written."""
        job = self.metrics.new_job(f"checkpoint({rdd.name})", self.now)
        bus = self.event_bus
        if bus.active:
            bus.post(JobStart(time=job.submit_time, job_id=job.job_id,
                              description=job.description))
        total = 0.0
        for pid in range(rdd.num_partitions):
            # Run the write where the data is (or can be) materialized.
            locs = self.block_manager_master.locations((rdd.rdd_id, pid))
            worker_id = (
                sorted(locs)[0] if locs else self.cluster.earliest_free_worker()
            )
            tm = self.metrics.new_task_metrics(job, stage_id=-1, partition=pid)
            ctx = EvalContext(self, worker_id, tm)
            records = ctx.evaluate(rdd, pid)
            size = ctx.serialized_size(records)  # declared by evaluate
            write_cost = (
                self.cost_model.serde_cost(size)
                + self.cost_model.disk_write_cost(size)
                + self.cost_model.network_cost(size * (REPLICATION - 1))
            )
            tm.shuffle_write_time += write_cost
            worker = self.cluster.get_worker(worker_id)
            start, finish = self.cluster.kernel.run_on_earliest_slot(
                worker, self.now, tm.work_time())
            tm.start_time, tm.finish_time = start, finish
            tm.worker_id = worker_id
            self.checkpoint_store.write(rdd.rdd_id, pid, size, records)
            self._invalidate_cost(rdd.rdd_id)  # now a barrier for its children
            total += size
            if bus.active:
                start_event, end_event = task_events_from_metrics(tm)
                bus.post(start_event)
                bus.post(end_event)
        self.checkpoint_store.commit(rdd.rdd_id, self.now)
        rdd.checkpointed = True
        job.finish_time = max((t.finish_time for t in job.tasks), default=self.now)
        if bus.active:
            bus.post(CheckpointWritten(
                time=job.finish_time, rdd_id=rdd.rdd_id, total_bytes=total,
                num_partitions=rdd.num_partitions,
            ))
            bus.post(JobEnd(time=job.finish_time, job_id=job.job_id,
                            duration=job.makespan, num_stages=0,
                            skipped_stages=0))
        return total

    # ---- diagnostics --------------------------------------------------------------------------

    def cached_bytes(self) -> float:
        return self.block_manager_master.total_cached_bytes()
