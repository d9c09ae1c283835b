"""repro.elastic — autoscaling, graceful decommission, admission control.

The paper's experiments run on a fixed 40-worker testbed; real
deployments of a dynamic-dataset engine face the opposite regime —
diurnal load over long-lived cached state — where cluster *size* is the
knob.  This package adds elastic resource management on top of the
simulated engine:

* :class:`ResourceManager` owns cluster membership: scale-out with a
  simulated spin-up delay, and graceful decommission that drains tasks
  and migrates cached partitions before releasing a worker (lineage
  recovery is the fallback, not the default).  Its
  ``min_workers``/``max_workers`` bounds are checked by
  :func:`validate_bounds`, which the benchmark harness also calls
  before it builds any context.
* :mod:`~repro.elastic.policy` supplies pluggable autoscaling policies —
  backlog-based, utilization-target, and latency-SLO — selected by name
  via the CLI's ``--scale-policy`` flag.
* Admission control lives in
  :class:`~repro.cluster.queueing.JobDriver` (``max_pending_jobs``):
  bounded pending-job queues shed load instead of queueing unboundedly.

See ``docs/ELASTICITY.md`` for the policy taxonomy and the decommission
protocol, and ``benchmarks/bench_elastic_diurnal.py`` for the diurnal
replay showing autoscaling holding the 800 ms p95 SLO at a fraction of
the static peak-provisioned worker-hours.
"""

from __future__ import annotations

from .manager import DecommissionReport, ResourceManager, validate_bounds
from .policy import (
    BacklogPolicy,
    ClusterSnapshot,
    LatencySLOPolicy,
    POLICY_NAMES,
    PolicyDecision,
    ScalingPolicy,
    UtilizationPolicy,
    make_scaling_policy,
    windowed_mean,
)

__all__ = [
    "BacklogPolicy",
    "ClusterSnapshot",
    "DecommissionReport",
    "LatencySLOPolicy",
    "POLICY_NAMES",
    "PolicyDecision",
    "ResourceManager",
    "ScalingPolicy",
    "UtilizationPolicy",
    "make_scaling_policy",
    "validate_bounds",
    "windowed_mean",
]
