"""Open-loop job arrival driver for throughput experiments (§IV-E).

Figures 19 and 20 measure *response time under load*: jobs arrive at a
controlled rate (fixed rate for Fig 19, trace-replay diurnal rate for
Fig 20) and the measured delay includes queueing behind earlier jobs.
Because the engine tracks per-slot free times in simulated seconds,
queueing arises naturally: a job submitted at arrival time ``t`` can only
use slots after the work already queued on them.

``JobDriver`` therefore just spaces out ``submit_time`` values, invokes a
caller-supplied job thunk for each arrival, and aggregates response-time
statistics.  Fig 19's "queries per second the system could handle when
keeping the delay below 800 ms" is the largest probed rate whose mean
delay stays under the cap (``repro.bench.harness.run_fig19``).
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.context import StarkContext

#: Signature of a job thunk: (arrival_time, job_index) -> finish_time.
JobFn = Callable[[float, int], float]


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample.

    The smallest value with at least ``pct`` percent of the sample at or
    below it, i.e. rank ``ceil(n * pct / 100)``.  (Truncating
    ``int(n * pct / 100)`` over-shoots by one whole rank whenever
    ``n * pct`` divides evenly — p95 of twenty samples returned the
    maximum.)  Shared by ``MetricsCollector.percentile_makespan`` and
    :class:`LoadResult`.
    """
    if not sorted_values:
        return 0.0
    rank = math.ceil(len(sorted_values) * pct / 100.0)
    idx = min(len(sorted_values) - 1, max(0, rank - 1))
    return sorted_values[idx]


@dataclass
class ArrivalResult:
    """Response-time record of one job."""

    arrival: float
    finish: float

    @property
    def delay(self) -> float:
        return self.finish - self.arrival


@dataclass
class LoadResult:
    """Aggregate of one constant-rate run."""

    rate_jobs_per_sec: float
    results: List[ArrivalResult] = field(default_factory=list)
    #: Jobs rejected by admission control (a tenant's
    #: ``max_pending_jobs`` in :class:`~repro.service.DatasetService`).
    shed_jobs: int = 0

    @property
    def mean_delay(self) -> float:
        if not self.results:
            return 0.0
        return statistics.fmean(r.delay for r in self.results)

    def delay_percentile(self, pct: float) -> float:
        """Nearest-rank percentile of the response-time sample."""
        return nearest_rank(sorted(r.delay for r in self.results), pct)

    @property
    def p95_delay(self) -> float:
        return self.delay_percentile(95.0)

    @property
    def p99_delay(self) -> float:
        return self.delay_percentile(99.0)

    @property
    def max_delay(self) -> float:
        return max((r.delay for r in self.results), default=0.0)


class JobDriver:
    """Submits jobs open-loop and records response times.

    Arrivals are scheduled as events on the cluster's
    :class:`~repro.cluster.events.SimKernel` and replayed through its
    event loop, so they interleave deterministically with armed
    failures.  Jobs still execute synchronously inside their arrival
    event (the virtual-time task scheduler), which pushes the clock
    frontier ahead of later arrivals under saturation; those arrivals
    then fire at the frontier while keeping their own nominal arrival
    timestamps — queueing delay arises exactly as before.
    """

    def __init__(self, context: "StarkContext", seed: int = 0) -> None:
        self.context = context
        self.rng = random.Random(seed)
        self._job_index = 0

    def _schedule_arrivals(self, out: LoadResult, job: JobFn,
                           arrivals: Sequence[float]) -> float:
        """Post one kernel event per arrival; returns the last timestamp.

        An arrival the frontier has already passed (a previous job ran
        long) fires immediately but keeps its nominal timestamp ``t`` —
        insertion order preserves arrival order among clamped events.
        """
        kernel = self.context.cluster.kernel
        now = kernel.now
        last = now
        batch = []
        for t in arrivals:
            batch.append((max(t, now),
                          lambda t=t: self._submit(out, job, t)))
            last = max(last, t)
        # One heapify for the whole flood instead of per-arrival pushes;
        # sequence numbers are assigned in list order, so delivery order
        # is identical to the per-event loop this replaces.
        kernel.schedule_many(batch)
        return last

    def _submit(self, out: LoadResult, job: JobFn, t: float) -> None:
        index = self._job_index
        self._job_index += 1
        out.results.append(ArrivalResult(arrival=t, finish=job(t, index)))

    def run_constant_rate(
        self,
        job: JobFn,
        rate_jobs_per_sec: float,
        num_jobs: int,
        start_time: Optional[float] = None,
        poisson: bool = True,
    ) -> LoadResult:
        """Submit ``num_jobs`` jobs at ``rate_jobs_per_sec``.

        Arrivals are Poisson by default (deterministic spacing with
        ``poisson=False``).  Each job's delay is ``finish - arrival``,
        so saturation shows up as unbounded queueing delay.
        """
        if rate_jobs_per_sec <= 0:
            raise ValueError(f"rate must be positive: {rate_jobs_per_sec}")
        kernel = self.context.cluster.kernel
        t = start_time if start_time is not None else kernel.now
        arrivals = []
        for _ in range(num_jobs):
            gap = (
                self.rng.expovariate(rate_jobs_per_sec)
                if poisson else 1.0 / rate_jobs_per_sec
            )
            t += gap
            arrivals.append(t)
        out = LoadResult(rate_jobs_per_sec)
        last = self._schedule_arrivals(out, job, arrivals)
        kernel.run_until(max(last, kernel.now))
        return out

    def run_arrivals(self, job: JobFn, arrivals: Sequence[float]) -> LoadResult:
        """Submit one job per explicit arrival timestamp (trace replay)."""
        kernel = self.context.cluster.kernel
        out = LoadResult(rate_jobs_per_sec=0.0)
        last = self._schedule_arrivals(out, job, sorted(arrivals))
        kernel.run_until(max(last, kernel.now))
        return out
