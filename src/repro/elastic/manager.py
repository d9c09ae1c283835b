"""ResourceManager: elastic cluster membership for the simulated engine.

Owns scale-out and graceful scale-in on top of
``Cluster.add_worker``/``remove_worker``:

* **Scale-out** provisions a worker whose slots only open after the cost
  model's ``worker_spinup_seconds`` — capacity arrives late, exactly the
  lag autoscaling policies must absorb — and registers an empty block
  store with the :class:`~repro.engine.block_manager.BlockManagerMaster`.
* **Graceful decommission** drains the victim's running tasks, migrates
  its cached partitions to surviving stores (charged serde + network
  time), and only falls back to lineage recovery for blocks beyond the
  migration budget.  The locality and group managers are told to purge
  the executor so preferred locations never dangle.
* **Worker-seconds accounting** integrates the alive-worker count over
  simulated time — the provisioning-cost axis of the diurnal benchmark
  (a static peak-provisioned cluster pays ``max_workers × elapsed``; an
  autoscaled one pays for what it kept).
* **Periodic evaluation** — construction arms a repeating timer on the
  cluster's :class:`~repro.cluster.events.SimKernel`
  (``evaluate_interval_seconds``), so scaling is *time-triggered*: the
  policy fires at the simulated instant its tick comes due instead of
  piggybacking on job arrivals.  Each tick measures load at its own
  nominal time; because slot free times are absolute, backlog at a tick
  the frontier has already passed is still well-defined.

Policies (``repro.elastic.policy``) never mutate the cluster themselves:
they return a :class:`PolicyDecision`, and :meth:`evaluate` applies it
under the ``min_workers``/``max_workers`` bounds and a cooldown.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, TYPE_CHECKING

from ..cluster.queueing import nearest_rank
from ..obs.events import (
    BlockCached,
    BlocksMigrated,
    ScalingDecision,
    WorkerDecommissioned,
    WorkerProvisioned,
)
from ..obs.sampler import UtilizationSampler
from .policy import ClusterSnapshot, PolicyDecision, ScalingPolicy, windowed_mean

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.context import StarkContext

#: How many recent job response times feed the latency-SLO p95.
DELAY_WINDOW = 32


def validate_bounds(min_workers: Optional[int], max_workers: Optional[int],
                    initial_workers: int) -> None:
    """Check elastic membership bounds against an initial cluster size.

    Requires positive bounds and ``min_workers <= initial_workers <=
    max_workers`` (for whichever bounds are set; ``None`` leaves that
    side unbounded); raises ``ValueError`` on nonsense so the CLI
    rejects bad flag combinations up front.
    """
    lo, hi = min_workers, max_workers
    if lo is not None and lo < 1:
        raise ValueError(f"min_workers must be at least 1: {lo}")
    if hi is not None and hi < 1:
        raise ValueError(f"max_workers must be at least 1: {hi}")
    if lo is not None and hi is not None and lo > hi:
        raise ValueError(
            f"min_workers ({lo}) exceeds max_workers ({hi})")
    if lo is not None and initial_workers < lo:
        raise ValueError(
            f"initial cluster size ({initial_workers}) is below "
            f"min_workers ({lo})")
    if hi is not None and initial_workers > hi:
        raise ValueError(
            f"initial cluster size ({initial_workers}) exceeds "
            f"max_workers ({hi})")


@dataclass
class DecommissionReport:
    """Outcome of one graceful decommission."""

    worker_id: int
    migrated_blocks: int
    dropped_blocks: int
    migrated_bytes: float
    drain_seconds: float
    migration_seconds: float
    #: Simulated time at which the worker is fully released (drain and
    #: migration overlap; the later one gates the release).
    complete_at: float

    @property
    def lost_nothing(self) -> bool:
        """True when every cached partition survived the decommission."""
        return self.dropped_blocks == 0


class ResourceManager:
    """Drives elastic membership of one context's cluster."""

    def __init__(
        self,
        context: "StarkContext",
        policy: ScalingPolicy,
        min_workers: int = 1,
        max_workers: Optional[int] = None,
        cooldown_seconds: float = 30.0,
        scale_in_cooldown_seconds: Optional[float] = None,
        migration_budget_bytes: float = 4e9,
        slo_delay_cap: float = 0.8,
        occupancy_window: float = 120.0,
        evaluate_interval_seconds: Optional[float] = None,
    ) -> None:
        validate_bounds(min_workers, max_workers,
                        len(context.cluster.alive_workers()))
        self.context = context
        self.policy = policy
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.cooldown_seconds = cooldown_seconds
        #: Removing capacity is cheap to delay and expensive to get wrong
        #: (drain + migration + possible re-provision), so scale-in waits
        #: out a longer cooldown than scale-out: 4x by default.
        self.scale_in_cooldown_seconds = (
            scale_in_cooldown_seconds if scale_in_cooldown_seconds is not None
            else 4.0 * cooldown_seconds
        )
        self.migration_budget_bytes = migration_budget_bytes
        self.slo_delay_cap = slo_delay_cap
        self.occupancy_window = occupancy_window
        #: Slot-occupancy source for the utilization policy: a sampler
        #: fed by the context's event bus (subscribing activates it).
        self.sampler = UtilizationSampler()
        context.event_bus.subscribe(self.sampler)
        self._recent_delays: Deque[float] = deque(maxlen=DELAY_WINDOW)
        self._last_action_time = float("-inf")
        self._worker_seconds = 0.0
        self._ws_last = context.cluster.clock.now
        self.decommissions: List[DecommissionReport] = []
        self.scale_outs = 0
        self.scale_ins = 0
        self.peak_workers = len(context.cluster.alive_workers())
        #: Backlog source for timer-driven evaluation: ``now -> pending
        #: jobs``.  A JobDriver binds its own queue depth here; without
        #: one the timer evaluates with zero pending jobs.
        self._pending_source: Callable[[float], int] = lambda now: 0
        #: The periodic evaluation tick.  Defaults to a quarter of the
        #: (scale-out) cooldown so a held decision is retried promptly,
        #: with a floor for cooldown-free configurations.
        self.evaluate_interval_seconds = (
            evaluate_interval_seconds if evaluate_interval_seconds is not None
            else max(cooldown_seconds / 4.0, 1.0)
        )
        self._timer = context.cluster.kernel.every(
            self.evaluate_interval_seconds, self._on_timer)

    # ---- signals -----------------------------------------------------------

    def note_delay(self, delay: float) -> None:
        """Feed one job response time into the latency-SLO window."""
        self._recent_delays.append(delay)

    def bind_pending_jobs(self, source: Callable[[float], int]) -> None:
        """Register the pending-jobs source the periodic timer evaluates
        with (e.g. ``JobDriver.pending_jobs``)."""
        self._pending_source = source

    def _on_timer(self, tick: float) -> None:
        """One periodic scaling tick at nominal time ``tick``."""
        self.evaluate(pending_jobs=self._pending_source(tick), now=tick)

    def stop(self) -> None:
        """Cancel the periodic evaluation timer."""
        self._timer.cancel()

    def on_job_completed(self, arrival: float, finish: float) -> None:
        """JobDriver hook: one job's (arrival, finish) pair."""
        self.note_delay(finish - arrival)

    def recent_p95_delay(self) -> float:
        return nearest_rank(sorted(self._recent_delays), 95.0)

    def snapshot(self, pending_jobs: int = 0,
                 now: Optional[float] = None) -> ClusterSnapshot:
        """Assemble the load signals a policy decides from.

        ``now`` is the *evaluation* time — normally the nominal time of
        the kernel timer tick that triggered it (default: the current
        frontier).  Slot free times are absolute, so backlog is
        well-defined at any instant, including ticks the frontier has
        already run past.
        """
        cluster = self.context.cluster
        now = cluster.clock.now if now is None else now
        alive = cluster.alive_workers()
        backlog = sum(w.pending_work_until(now) for w in alive)
        occupancy = windowed_mean(
            self.sampler.slot_occupancy(),
            now - self.occupancy_window, now,
        )
        return ClusterSnapshot(
            time=now,
            alive_workers=len(alive),
            total_slots=cluster.total_cores(),
            pending_jobs=pending_jobs,
            backlog_seconds=backlog,
            slot_occupancy=occupancy,
            recent_p95_delay=self.recent_p95_delay(),
            slo_delay_cap=self.slo_delay_cap,
        )

    # ---- worker-seconds accounting -----------------------------------------

    def _accrue(self) -> None:
        now = self.context.cluster.clock.now
        if now > self._ws_last:
            self._worker_seconds += (
                (now - self._ws_last) * len(self.context.cluster.alive_workers())
            )
            self._ws_last = now

    def worker_seconds(self) -> float:
        """Alive-worker count integrated over simulated time so far
        (decommissioned workers bill until their drain completes)."""
        self._accrue()
        return self._worker_seconds

    def worker_hours(self) -> float:
        return self.worker_seconds() / 3600.0

    # ---- scaling loop -------------------------------------------------------

    def evaluate(self, pending_jobs: int = 0,
                 now: Optional[float] = None) -> PolicyDecision:
        """One scaling evaluation; returns the *applied* decision.

        Normally invoked by the manager's periodic kernel timer with the
        tick's nominal time as ``now``; callable directly for manual
        scans.  The policy's recommendation is clamped to the
        ``min_workers``/``max_workers`` bounds; a non-zero application
        starts the cooldown during which further evaluations hold.
        """
        self._accrue()
        if now is None:
            now = self.context.cluster.clock.now
        if now - self._last_action_time < self.cooldown_seconds:
            return PolicyDecision(0, "cooldown")
        snap = self.snapshot(pending_jobs, now=now)
        decision = self.policy.decide(snap)
        if (decision.delta < 0
                and now - self._last_action_time < self.scale_in_cooldown_seconds):
            return PolicyDecision(0, "scale-in cooldown")
        lo = self.min_workers
        hi = self.max_workers if self.max_workers is not None else float("inf")
        target = int(min(max(snap.alive_workers + decision.delta, lo), hi))
        applied = target - snap.alive_workers
        if applied == 0:
            return PolicyDecision(0, decision.reason)
        if applied > 0:
            for _ in range(applied):
                self.scale_out()
        else:
            for _ in range(-applied):
                self.decommission()
        self._last_action_time = now
        bus = self.context.event_bus
        if bus.active:
            bus.post(ScalingDecision(
                time=now, policy=self.policy.name,
                action="scale_out" if applied > 0 else "scale_in",
                delta=applied,
                alive_workers=len(self.context.cluster.alive_workers()),
                reason=decision.reason,
            ))
        return PolicyDecision(applied, decision.reason)

    # ---- scale-out ----------------------------------------------------------

    def scale_out(self) -> int:
        """Provision one worker; its slots open after the spin-up delay.
        Returns the new worker id."""
        self._accrue()
        context = self.context
        now = context.cluster.clock.now
        spinup = context.cost_model.worker_spinup_seconds
        worker_id = context.cluster.add_worker(ready_at=now + spinup)
        context.register_worker(worker_id)
        self.scale_outs += 1
        self.peak_workers = max(self.peak_workers,
                                len(context.cluster.alive_workers()))
        bus = context.event_bus
        if bus.active:
            bus.post(WorkerProvisioned(
                time=now, worker_id=worker_id,
                cores=context.cluster.get_worker(worker_id).cores,
                ready_at=now + spinup, spinup_seconds=spinup,
                alive_workers=len(context.cluster.alive_workers()),
            ))
        return worker_id

    # ---- graceful decommission ----------------------------------------------

    def decommission(self, worker_id: Optional[int] = None) -> DecommissionReport:
        """Gracefully remove one worker (the cheapest victim by default).

        Protocol: stop scheduling on the victim (it leaves the membership
        map), let running tasks drain, migrate cached blocks to surviving
        stores until the migration budget runs out, then release.  Blocks
        past the budget — or too large for any survivor's free space —
        are dropped with reason ``"worker_lost"`` and recovered by
        lineage on next access.
        """
        self._accrue()
        context = self.context
        cluster = context.cluster
        if len(cluster.alive_workers()) <= 1:
            raise RuntimeError("refusing to decommission the last alive worker")
        now = cluster.clock.now
        victim = self._pick_victim() if worker_id is None else worker_id
        worker = cluster.get_worker(victim)
        drain = (
            max(0.0, max(worker.slot_free_times) - now) if worker.alive else 0.0
        )

        bmm = context.block_manager_master
        migrated_blocks = 0
        migrated_bytes = 0.0
        migration_seconds = 0.0
        bus = context.event_bus
        store = bmm.stores.get(victim)
        if store is not None and worker.alive:
            broker = context.cache_broker
            if broker is not None:
                # Memory market: drain hottest-value-first so the
                # migration budget is spent on the blocks whose loss
                # would cost the most recompute.
                drain_order = broker.migration_order(victim)
            else:
                drain_order = sorted(store.block_ids())
            for block_id in drain_order:
                block = store.peek(block_id)
                if block is None:
                    continue
                existing = [w for w in bmm.locations(block_id)
                            if w != victim and w in bmm.stores]
                if existing:
                    # Another replica already exists: release the victim's
                    # copy for free (nothing moves, nothing is lost).
                    bmm.migrate_block(block_id, victim, min(existing))
                    migrated_blocks += 1
                    continue
                if migrated_bytes + block.size_bytes > self.migration_budget_bytes:
                    break  # budget exhausted: the rest falls back to lineage
                dst = self._pick_destination(block_id, victim, block.size_bytes)
                if dst is None:
                    continue
                if not bmm.migrate_block(block_id, victim, dst):
                    continue
                migrated_blocks += 1
                migrated_bytes += block.size_bytes
                migration_seconds += (
                    context.cost_model.serde_cost(block.size_bytes)
                    + context.cost_model.network_cost(block.size_bytes)
                )
                if bus.active:
                    bus.post(BlockCached(
                        time=now, worker_id=dst, rdd_id=block_id[0],
                        partition=block_id[1], size_bytes=block.size_bytes,
                    ))
                namespace = context.locality_manager.namespace_of_rdd(block_id[0])
                if namespace is not None:
                    context.locality_manager.add_replica(
                        namespace, block_id[1], dst)

        cluster.remove_worker(victim)
        dropped = bmm.deregister_worker(victim)
        context.locality_manager.remove_executor(victim)
        context.group_manager.remove_executor(victim)

        complete_at = now + max(drain, migration_seconds)
        # The victim bills until fully released, even though it left the
        # membership map (no new tasks) at decision time.
        self._worker_seconds += complete_at - now
        if bus.active:
            if migrated_blocks:
                bus.post(BlocksMigrated(
                    time=now, worker_id=victim, num_blocks=migrated_blocks,
                    total_bytes=migrated_bytes,
                    migration_seconds=migration_seconds,
                ))
            bus.post(WorkerDecommissioned(
                time=complete_at, worker_id=victim,
                migrated_blocks=migrated_blocks, dropped_blocks=len(dropped),
                drain_seconds=drain,
                alive_workers=len(cluster.alive_workers()),
            ))
        report = DecommissionReport(
            worker_id=victim, migrated_blocks=migrated_blocks,
            dropped_blocks=len(dropped), migrated_bytes=migrated_bytes,
            drain_seconds=drain, migration_seconds=migration_seconds,
            complete_at=complete_at,
        )
        self.decommissions.append(report)
        self.scale_ins += 1
        return report

    def _pick_victim(self) -> int:
        """Cheapest worker to lose: fewest cached bytes, then least
        queued work, then the newest (highest id).

        With the cluster-wide cache broker on, the primary key becomes
        the broker's **cached value density** (recompute-value resident
        per byte of store capacity) so scale-in takes the *coldest*
        worker — and the hottest-density worker is excluded outright
        unless every candidate's resident bytes exceed the migration
        budget (in which case any choice drops cache and the density
        ordering alone decides).
        """
        cluster = self.context.cluster
        bmm = self.context.block_manager_master
        broker = self.context.cache_broker
        now = cluster.clock.now

        def cached_bytes(wid: int) -> float:
            store = bmm.stores.get(wid)
            return store.used_bytes if store is not None else 0.0

        candidates = list(cluster.alive_worker_ids())
        if broker is not None:
            def density(wid: int) -> float:
                if wid not in bmm.stores:
                    return 0.0
                return broker.worker_value_density(wid)

            hottest = max(candidates, key=lambda w: (density(w), w))
            if (len(candidates) > 1 and not all(
                    cached_bytes(w) > self.migration_budget_bytes
                    for w in candidates)):
                candidates = [w for w in candidates if w != hottest]
            return min(candidates, key=lambda w: (
                density(w), cached_bytes(w),
                cluster.get_worker(w).pending_work_until(now), -w))

        def cost(wid: int):
            return (cached_bytes(wid),
                    cluster.get_worker(wid).pending_work_until(now), -wid)

        return min(candidates, key=cost)

    def _pick_destination(self, block_id, victim: int,
                          size_bytes: float) -> Optional[int]:
        """Survivor store for a migrating block.

        Prefers the block's co-locality placement (so migrated data stays
        where its collection siblings are scheduled), then the store with
        the most free space.  Only stores with genuine free capacity
        qualify — migration must never evict a survivor's cached blocks.
        """
        context = self.context
        bmm = context.block_manager_master
        candidates = [
            w for w in context.cluster.alive_worker_ids()
            if w != victim and w in bmm.stores
            and bmm.stores[w].capacity_bytes - bmm.stores[w].used_bytes
            >= size_bytes
            and block_id not in bmm.stores[w]
        ]
        if not candidates:
            return None
        namespace = context.locality_manager.namespace_of_rdd(block_id[0])
        if namespace is not None:
            preferred = set(context.locality_manager.preferred_executors(
                namespace, block_id[1]))
            homed = [w for w in candidates if w in preferred]
            if homed:
                candidates = homed
        return max(
            candidates,
            key=lambda w: (
                bmm.stores[w].capacity_bytes - bmm.stores[w].used_bytes, -w
            ),
        )
