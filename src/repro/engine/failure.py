"""Failure injection and lineage-based recovery.

Killing a worker loses its cached blocks (and, optionally, its locally
persisted shuffle outputs, modelling full machine loss).  Recovery is
what Spark does: re-run the lost partitions from the nearest available
cut — checkpoints, surviving shuffle outputs, or the original sources —
using the remaining workers.  ``FailureInjector.measure_recovery`` runs a
probe job before and after a kill and reports the recovery delay, the
quantity the CheckpointOptimizer bounds (§III-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

from ..obs.events import FailureInjected, LineageRecovered

if TYPE_CHECKING:  # pragma: no cover
    from .context import StarkContext
    from .rdd import RDD


@dataclass
class RecoveryReport:
    """Outcome of one injected failure."""

    killed_worker: int
    lost_blocks: int
    lost_shuffle_outputs: int
    #: Simulated job delay before the failure (warm caches).
    baseline_delay: float
    #: Simulated job delay of the first job after the failure.
    recovery_delay: float

    @property
    def slowdown(self) -> float:
        if self.baseline_delay <= 0:
            return float("inf") if self.recovery_delay > 0 else 1.0
        return self.recovery_delay / self.baseline_delay


class FailureInjector:
    """Injects worker failures and measures recovery behaviour."""

    def __init__(self, context: "StarkContext") -> None:
        self.context = context

    def kill_worker(self, worker_id: int, lose_disk: bool = False) -> RecoveryReport:
        """Kill ``worker_id``; returns a partial report (no delays).

        Shuffle-output semantics are two orthogonal switches:

        * ``lose_disk=False`` (process loss): the executor dies but its
          local disk survives.  Map outputs stay registered in the
          :class:`~repro.engine.shuffle.MapOutputTracker` *and* on the
          worker's ``shuffle_disk`` — a consistent pair.  Whether they
          are still *servable* is decided at fetch time by
          ``StarkConfig.external_shuffle_service``: ``True`` (default)
          models a node-local shuffle service that keeps serving them;
          ``False`` makes reducers raise
          :class:`~repro.engine.fault_tolerance.FetchFailedError`, which
          escalates to DAG-scheduler stage resubmission.
        * ``lose_disk=True`` (machine loss): outputs are unregistered
          and the disk cleared together, so the tracker never advertises
          data that no longer exists.  The DAG scheduler sees the
          missing map partitions up front and recomputes them
          proactively — no fetch failures fire.

        Keeping registration and disk state in lockstep is what makes
        ``measure_recovery`` meaningful under either shuffle-service
        mode; see ``docs/FAULT_TOLERANCE.md``.
        """
        context = self.context
        context.cluster.kill_worker(worker_id)
        lost_blocks = context.block_manager_master.lose_worker(worker_id)
        lost_outputs: List = []
        if lose_disk:
            lost_outputs = context.map_output_tracker.remove_outputs_on_worker(worker_id)
            context.cluster.get_worker(worker_id).shuffle_disk.clear()
        bus = context.event_bus
        if bus.active:
            bus.post(FailureInjected(
                time=context.cluster.clock.now, worker_id=worker_id,
                lost_blocks=len(lost_blocks),
                lost_shuffle_outputs=len(lost_outputs)))
        return RecoveryReport(
            killed_worker=worker_id,
            lost_blocks=len(lost_blocks),
            lost_shuffle_outputs=len(lost_outputs),
            baseline_delay=0.0,
            recovery_delay=0.0,
        )

    def restart_worker(self, worker_id: int) -> None:
        """Bring a killed worker back with an empty cache.

        The restarted executor re-registers with the block manager master
        (a no-op when its store object survived the kill, which is the
        common case) and its slots free at the current simulated time, so
        it is immediately schedulable again.
        """
        self.context.cluster.restart_worker(worker_id)
        self.context.register_worker(worker_id)

    def measure_recovery(
        self,
        rdd: "RDD",
        worker_id: int,
        lose_disk: bool = False,
        action: Optional[Callable[[list], object]] = None,
    ) -> RecoveryReport:
        """Warm the caches with one job, kill ``worker_id``, re-run the
        job, and report both delays.

        Any missing shuffle map outputs are recomputed by re-running the
        corresponding map stages (the DAG scheduler no longer skips them),
        so the recovery delay includes lineage re-execution.
        """
        act = action or (lambda records: len(records))
        self.context.run_job(rdd, act, description="recovery.baseline.warm")
        baseline = self._timed_run(rdd, act, "recovery.baseline")
        report = self.kill_worker(worker_id, lose_disk=lose_disk)
        recovery = self._timed_run(rdd, act, "recovery.after_failure")
        report.baseline_delay = baseline
        report.recovery_delay = recovery
        bus = self.context.event_bus
        if bus.active:
            bus.post(LineageRecovered(
                time=self.context.cluster.clock.now, worker_id=worker_id,
                baseline_delay=baseline, recovery_delay=recovery))
        return report

    def _timed_run(self, rdd: "RDD", action: Callable, description: str) -> float:
        self.context.run_job(rdd, action, description=description)
        return self.context.metrics.last_job().makespan


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled failure: kill ``worker_id`` at ``time`` and (unless
    ``restart_after`` is None) bring it back that many seconds later."""

    time: float
    worker_id: int
    lose_disk: bool = False
    restart_after: Optional[float] = None


class FailureSchedule:
    """Arms a sequence of failures on the cluster's kernel event heap.

    Open-loop experiments (the Fig 19/20 drivers) replay arrivals through
    the kernel's event loop; armed failures fire in between by timestamp,
    so jobs submitted after a kill see the reduced cluster — churn
    testing without any bespoke driver support.  The DAG scheduler also
    pumps the kernel at job boundaries, so directly-run jobs (no driver)
    observe armed failures too.
    """

    def __init__(self, context: "StarkContext",
                 events: Sequence[FailureEvent]) -> None:
        self.context = context
        self.events = sorted(events, key=lambda e: e.time)
        self.fired: List[FailureEvent] = []
        self._injector = FailureInjector(context)
        queue = context.cluster.events
        for event in self.events:
            queue.schedule(event.time, self._make_callback(event))

    def _make_callback(self, event: FailureEvent) -> Callable[[], None]:
        def fire() -> None:
            self._injector.kill_worker(event.worker_id,
                                       lose_disk=event.lose_disk)
            self.fired.append(event)
            if event.restart_after is not None:
                self.context.cluster.events.schedule_in(
                    event.restart_after,
                    lambda: self._injector.restart_worker(event.worker_id),
                )

        return fire

    def pump(self) -> int:
        """Fire every armed failure whose time has passed; returns how
        many fired.  Usually redundant (the kernel is pumped at job
        boundaries), but explicit pumping between non-job phases is
        still valid."""
        return self.context.cluster.kernel.pump()
