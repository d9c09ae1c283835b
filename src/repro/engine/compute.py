"""Partition evaluation: materializing RDD partitions on a worker.

This module implements the locality semantics the whole paper revolves
around (Spark-1.3 behaviour, §II-B):

1. A partition cached in the *local* block store is read from RAM.
2. A checkpointed partition is read from reliable storage.
3. A shuffled partition is built by fetching every map output bucket —
   local buckets from disk, remote buckets over the network.
4. Otherwise the partition is **recomputed from the beginning of the
   stage**: the engine never fetches a remote *cached* block.  Losing
   locality therefore re-executes every narrow transformation from the
   nearest shuffle/checkpoint/source — the red bold paths of Fig 2.

Every branch charges simulated time into the active
:class:`~repro.engine.metrics.TaskMetrics`, and per-RDD statistics
(transformation delay, materialized size) are logged for the
CheckpointOptimizer (§III-D1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, TYPE_CHECKING

from ..obs.events import (BlockCached, BrokerPrefixHit, CacheHit, CacheMiss,
                          ShuffleFetch)
from .fault_tolerance import FetchFailedError
from .metrics import TaskMetrics

if TYPE_CHECKING:  # pragma: no cover
    from .block_manager import Block
    from .context import StarkContext
    from .dependency import ShuffleDependency
    from .rdd import RDD


@dataclass
class RDDStats:
    """Per-RDD measurements feeding the checkpoint optimizer.

    ``max_partition_delay`` is the paper's transformation delay estimate:
    the maximum, across tasks, of the time this RDD's own transformation
    took (§III-D1).  ``size_bytes`` accumulates materialized partition
    sizes (each partition counted once).
    """

    rdd_id: int
    max_partition_delay: float = 0.0
    size_bytes: float = 0.0
    _sized_partitions: set = field(default_factory=set)
    #: ``fn(rdd_id)`` told when the delay estimate rises — one callable
    #: shared by every stats object of a context, never one each.
    _on_delay_raised: Optional[Callable[[int], None]] = field(
        default=None, repr=False, compare=False)

    def record_delay(self, delay: float) -> None:
        if delay > self.max_partition_delay:
            self.max_partition_delay = delay
            if self._on_delay_raised is not None:
                self._on_delay_raised(self.rdd_id)

    def record_size(self, pid: int, size: float) -> None:
        if pid not in self._sized_partitions:
            self._sized_partitions.add(pid)
            self.size_bytes += size


class EvalContext:
    """One task's evaluation context on one worker.

    Memoizes materialized partitions within the task (so diamond lineage
    is computed once) and routes every cost into the task's metrics.
    """

    def __init__(self, context: "StarkContext", worker_id: int,
                 metrics: TaskMetrics, commit_effects: bool = True) -> None:
        self.context = context
        self.worker_id = worker_id
        self.metrics = metrics
        #: False for attempts pre-sampled to fail: time is still charged,
        #: but nothing durable happens — no map-output registration, no
        #: shuffle files, no cache inserts.
        self.commit_effects = commit_effects
        self._memo: Dict[Tuple[int, int], list] = {}
        #: Heap footprint of each memoized partition, filled at
        #: memoization time in the same insertion order as ``_memo``.
        #: ``Task.run`` sums these for the GC surcharge instead of
        #: re-sizing every record of every partition per task.  Cache
        #: hits reuse ``block.size_bytes``, which *is* the
        #: ``in_memory_size`` computed when the block was cached, so the
        #: sum is bit-identical to re-sizing.
        self._memo_sizes: Dict[Tuple[int, int], float] = {}
        #: ``(records, serialized bytes)`` declared for one list, the one
        #: slot ``serialized_size`` reads before walking: set by its own
        #: walk (a source charges its read, then ``evaluate`` receives that
        #: very list), by ``evaluate`` for a partition read from a block
        #: or a checkpoint, by ``fetch_shuffle`` and by ``declare_size``.
        #: A caller that sizes what ``evaluate`` just returned therefore
        #: walks nothing.  Holds the list itself and compares with
        #: ``is``: an ``id()`` could be reused by a later list.
        self._last_sized: Optional[Tuple[list, int]] = None
        self._recompute_depth = 0

    def working_set_bytes(self) -> float:
        """Heap footprint of everything this task materialized."""
        return sum(self._memo_sizes.values())

    def serialized_size(self, records: list) -> int:
        """``size_of_partition(records)``: the size declared for this very
        list when there is one (``_last_sized``), else one deep walk, which
        is then declared.  Heap bytes follow from it without another walk
        (``in_memory_size(records, serialized=...)``)."""
        last = self._last_sized
        if last is None or last[0] is not records:
            last = self._last_sized = (
                records, self.context.sizer.size_of_partition(records))
        return last[1]

    def declare_size(self, records: list, size: int) -> None:
        """Declare ``size == size_of_partition(records)`` for a list whose
        bytes are already known (read from a block or a checkpoint, or
        built from sized pieces), so ``serialized_size`` does not walk it."""
        self._last_sized = (records, size)

    # ---- cost charging (called by RDD.compute implementations) ---------------

    def charge_compute(self, rdd: "RDD", input_records: int) -> float:
        """Charge CPU for one narrow transformation over ``input_records``."""
        cost = self.context.cost_model.compute_cost(input_records)
        self.metrics.compute_time += cost
        self.metrics.input_records += input_records
        self.context.rdd_stats(rdd.rdd_id).record_delay(cost)
        return cost

    def charge_columnar_compute(self, rdd: "RDD", input_rows: int,
                                kernels: int = 1) -> float:
        """Charge CPU for vectorized columnar kernels over ``input_rows``.

        Columnar batches amortize dispatch over whole arrays, so the
        per-row rate is the cost model's ``columnar_cpu_per_record``
        plus a fixed per-kernel launch overhead (``repro.columnar``).
        """
        cost = self.context.cost_model.columnar_compute_cost(
            input_rows, kernels)
        self.metrics.compute_time += cost
        self.metrics.input_records += input_rows
        self.context.rdd_stats(rdd.rdd_id).record_delay(cost)
        return cost

    def charge_driver_ship(self, rdd: "RDD", records: list) -> float:
        size = self.serialized_size(records)
        cost = self.context.cost_model.serde_cost(size) + \
            self.context.cost_model.network_cost(size)
        self.metrics.source_read_time += cost
        self.context.rdd_stats(rdd.rdd_id).record_delay(cost)
        return cost

    def charge_source_read(self, rdd: "RDD", records: list, read_cost: str) -> float:
        size = self.serialized_size(records)
        model = self.context.cost_model
        if read_cost == "disk":
            cost = model.disk_read_cost(size) + model.serde_cost(size)
        elif read_cost == "network":
            cost = model.network_cost(size) + model.serde_cost(size)
        else:
            cost = model.memory_read_cost(size)
        self.metrics.source_read_time += cost
        self.metrics.input_bytes += size
        self.context.rdd_stats(rdd.rdd_id).record_delay(cost)
        return cost

    # ---- materialization -------------------------------------------------------

    def evaluate(self, rdd: "RDD", pid: int) -> list:
        """Materialize partition ``pid`` of ``rdd`` on this worker."""
        key = (rdd.rdd_id, pid)
        if key in self._memo:
            return self._memo[key]
        ctx = self.context
        model = ctx.cost_model

        # 1. Local cache hit: read from RAM.
        block = ctx.block_manager_master.get_local(self.worker_id, key)
        if block is not None:
            self.metrics.cache_read_time += model.memory_read_cost(block.size_bytes)
            self.metrics.cache_hits += 1
            self.metrics.input_bytes += block.size_bytes
            bus = ctx.event_bus
            if bus.active:
                bus.post(CacheHit(
                    time=ctx.cluster.clock.now, worker_id=self.worker_id,
                    rdd_id=rdd.rdd_id, partition=pid,
                    size_bytes=block.size_bytes))
            return self._memoize_block(key, block)

        # 1b. Cross-job lineage-prefix hit: an RDD with a structurally
        # identical lineage prefix (same computation, different job /
        # tenant) holds cached blocks — serve from those instead of
        # recomputing.  Broker mode only; falls through on no match.
        broker = getattr(ctx, "cache_broker", None)
        if broker is not None:
            equivalent = broker.equivalent_for(rdd.rdd_id)
            if equivalent is not None:
                records = self._serve_equivalent(rdd, equivalent, pid)
                if records is not None:
                    return records

        # 2. Checkpoint hit: read from reliable storage.
        cp = ctx.checkpoint_store.read(rdd.rdd_id, pid)
        if cp is not None:
            size, records = cp
            self.metrics.checkpoint_read_time += (
                model.disk_read_cost(size) + model.serde_cost(size)
            )
            self._memo[key] = records
            # ``size`` is what ``checkpoint_rdd`` (the only writer) got
            # walking this very list: no second walk here.
            mem_size = ctx.sizer.in_memory_size(records, serialized=size)
            self._memo_sizes[key] = mem_size
            self.declare_size(records, size)
            if rdd.cached:
                self._cache_block(rdd, pid, records, mem_size, size)
            return records

        # 3/4. Recompute (shuffle fetches happen inside rdd.compute).
        if rdd.cached:
            self.metrics.cache_misses += 1
            bus = ctx.event_bus
            if bus.active:
                bus.post(CacheMiss(
                    time=ctx.cluster.clock.now, worker_id=self.worker_id,
                    rdd_id=rdd.rdd_id, partition=pid))
        self.metrics.recomputed_partitions += 1
        if rdd.cached and self._recompute_depth == 0:
            # Attribute the whole rebuild (including nested parents) to
            # the outermost miss — the per-policy recompute penalty.
            self._recompute_depth += 1
            before = self.metrics.work_time()
            try:
                records = rdd.compute(pid, self)
            finally:
                self._recompute_depth -= 1
            self.metrics.recompute_time += self.metrics.work_time() - before
        else:
            records = rdd.compute(pid, self)
        self._memo[key] = records
        size = self.serialized_size(records)
        mem_size = ctx.sizer.in_memory_size(records, serialized=size)
        self._memo_sizes[key] = mem_size
        ctx.rdd_stats(rdd.rdd_id).record_size(pid, size)
        if rdd.cached:
            self._cache_block(rdd, pid, records, mem_size, size)
        return records

    def fetch_shuffle(self, child: "RDD", dep: "ShuffleDependency", pid: int) -> list:
        """Fetch all map-output buckets feeding reduce partition ``pid``.

        Buckets on this worker's disk are read locally; others pay a
        network transfer plus the remote disk read.  The returned list is
        declared at the sum of the bucket sizes the map side walked, so
        neither ``evaluate`` nor a cogroup walks it again.
        """
        ctx = self.context
        model = ctx.cost_model
        config = ctx.config
        rng = ctx.cluster.rng
        outputs = ctx.map_output_tracker.outputs_for_reduce(dep.shuffle_id, pid)
        records: list = []
        fetched = 0
        local_bytes = remote_bytes = 0.0
        local_seconds = remote_seconds = 0.0
        for out in outputs:
            disk = model.disk_read_cost(out.size_bytes)
            if out.worker_id == self.worker_id:
                self.metrics.shuffle_fetch_local_time += disk
                local_bytes += out.size_bytes
                local_seconds += disk
            else:
                # Without an external shuffle service a dead (or removed)
                # executor's local disk is unreachable: stale map outputs
                # surface as fetch failures, not silent successes.
                if not config.external_shuffle_service:
                    server = ctx.cluster.workers.get(out.worker_id)
                    if server is None or not server.alive:
                        raise FetchFailedError(
                            dep.shuffle_id, -1, out.worker_id,
                            "map output on dead executor")
                if config.fetch_failure_prob > 0 \
                        and rng.random() < config.fetch_failure_prob:
                    raise FetchFailedError(
                        dep.shuffle_id, -1, out.worker_id,
                        "transient fetch failure")
                remote = disk + model.network_cost(out.size_bytes)
                self.metrics.shuffle_fetch_remote_time += remote
                remote_bytes += out.size_bytes
                remote_seconds += remote
            self.metrics.shuffle_bytes_fetched += out.size_bytes
            fetched += out.size_bytes
            records.extend(out.records)
        bus = ctx.event_bus
        if bus.active and outputs:
            bus.post(ShuffleFetch(
                time=ctx.cluster.clock.now, worker_id=self.worker_id,
                shuffle_id=dep.shuffle_id, reduce_id=pid,
                local_bytes=local_bytes, remote_bytes=remote_bytes,
                local_seconds=local_seconds, remote_seconds=remote_seconds))
        reduce_cost = model.shuffle_reduce_cost(len(records))
        self.metrics.compute_time += reduce_cost
        ctx.rdd_stats(child.rdd_id).record_delay(reduce_cost)
        self.declare_size(records, fetched)
        return records

    def write_shuffle_output(self, dep: "ShuffleDependency", map_pid: int) -> None:
        """Run the map side of ``dep`` for ``map_pid`` on this worker:
        materialize the parent partition, bucket it by the partitioner,
        optionally combine map-side, and commit buckets to local disk."""
        ctx = self.context
        model = ctx.cost_model
        records = self.evaluate(dep.rdd, map_pid)

        part = dep.partitioner
        buckets: Dict[int, list] = {}
        for record in records:
            buckets.setdefault(part.get_partition(record[0]), []).append(record)
        self.metrics.compute_time += model.compute_cost(len(records))

        if dep.map_side_combine:
            agg = dep.aggregator
            combined: Dict[int, list] = {}
            for rpid, bucket in buckets.items():
                acc: dict = {}
                for k, v in bucket:
                    acc[k] = agg(acc[k], v) if k in acc else v
                combined[rpid] = list(acc.items())
            self.metrics.compute_time += model.compute_cost(len(records))
            buckets = combined

        sized: Dict[int, Tuple[float, list]] = {}
        total_bytes = 0.0
        for rpid, bucket in buckets.items():
            size = ctx.sizer.size_of_partition(bucket)
            sized[rpid] = (size, bucket)
            total_bytes += size
        self.metrics.shuffle_write_time += (
            model.serde_cost(total_bytes) + model.disk_write_cost(total_bytes)
        )
        self.metrics.shuffle_bytes_written += total_bytes
        if not self.commit_effects:
            return
        disk = ctx.cluster.get_worker(self.worker_id).shuffle_disk
        on_disk = disk.setdefault(dep.shuffle_id, {})
        for rpid, (size, _) in sized.items():
            on_disk[(map_pid, rpid)] = size
        ctx.map_output_tracker.register_map_output(
            dep.shuffle_id, map_pid, self.worker_id, sized
        )

    # ---- caching ------------------------------------------------------------------

    def _serve_equivalent(self, rdd: "RDD", equivalent: int,
                          pid: int) -> Optional[list]:
        """Serve partition ``pid`` of ``rdd`` from the cached blocks of
        the structurally identical RDD ``equivalent`` (cross-job
        lineage-prefix sharing, ``StarkConfig.cache_broker``).

        A local replica reads at RAM speed like any cache hit; a remote
        replica pays serialization + network + memory read — the
        explicit, priced exception to the engine's no-remote-cache-fetch
        rule, existing *only* for broker prefix sharing.  Returns
        ``None`` when no live replica exists (caller recomputes — always
        safe, since prefix sharing never skips stage submission)."""
        ctx = self.context
        model = ctx.cost_model
        eq_key = (equivalent, pid)
        master = ctx.block_manager_master
        remote = False
        block = master.get_local(self.worker_id, eq_key)
        if block is None:
            live = sorted(master.locations(eq_key))
            if not live:
                return None
            block = master.stores[live[0]].get(eq_key)
            if block is None:
                return None
            remote = True
            cost = (model.serde_cost(block.size_bytes)
                    + model.network_cost(block.size_bytes)
                    + model.memory_read_cost(block.size_bytes))
        else:
            cost = model.memory_read_cost(block.size_bytes)
        self.metrics.cache_read_time += cost
        self.metrics.cache_hits += 1
        self.metrics.input_bytes += block.size_bytes
        ctx.cache_broker.note_prefix_hit(remote=remote)
        bus = ctx.event_bus
        if bus.active:
            now = ctx.cluster.clock.now
            bus.post(CacheHit(
                time=now, worker_id=self.worker_id, rdd_id=rdd.rdd_id,
                partition=pid, size_bytes=block.size_bytes))
            bus.post(BrokerPrefixHit(
                time=now, worker_id=self.worker_id, rdd_id=rdd.rdd_id,
                served_rdd_id=equivalent, partition=pid, remote=remote))
        return self._memoize_block((rdd.rdd_id, pid), block)

    def _memoize_block(self, key: Tuple[int, int], block: "Block") -> list:
        """Memoize a partition read from a cached block, declaring its
        serialized bytes when the block carries them."""
        self._memo[key] = block.records
        self._memo_sizes[key] = block.size_bytes
        if block.serialized_bytes is not None:
            self.declare_size(block.records, block.serialized_bytes)
        return block.records

    def _cache_block(self, rdd: "RDD", pid: int, records: list,
                     size: float, serialized: int) -> None:
        from .block_manager import Block

        if not self.commit_effects:
            return
        ctx = self.context
        # Cached blocks live deserialized on the heap: bigger than their
        # serialized (disk/shuffle) form by the memory-overhead factor.
        # ``size`` is the heap footprint ``evaluate`` already computed
        # for the working-set ledger.
        if not ctx.cache_manager.should_admit(rdd.rdd_id, size):
            return  # refused by the owning tenant's cache quota
        ctx.block_manager_master.put(
            self.worker_id, Block((rdd.rdd_id, pid), records, size, serialized)
        )
        bus = ctx.event_bus
        if bus.active and ctx.block_manager_master.is_cached_on(
            self.worker_id, (rdd.rdd_id, pid)
        ):
            bus.post(BlockCached(
                time=ctx.cluster.clock.now, worker_id=self.worker_id,
                rdd_id=rdd.rdd_id, partition=pid, size_bytes=size))
