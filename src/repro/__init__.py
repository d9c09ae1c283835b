"""repro — reproduction of Stark (ICDCS 2017).

Stark optimizes in-memory computing for *dynamic dataset collections*:
applications that continuously load and evict related datasets and run
transformations (cogroup/join) spanning many of them.  This package
rebuilds both the Spark-like substrate (as a discrete-event simulated
engine executing real data) and Stark's three contributions:

* **co-locality** — ``RDD.locality_partition_by`` + ``LocalityManager``
  pin collection partitions to stable executor sets (§III-B);
* **elasticity** — ``ExtendablePartitioner`` + ``GroupManager`` split and
  merge partition groups without re-partitioning (§III-C);
* **bounded recovery** — ``CheckpointOptimizer`` picks the minimum-cost
  checkpoint set via min-cut (§III-D).

The collection itself is ``DatasetCollection``: it co-locates, caches,
materializes and reports each step, and slides its window.

Quickstart::

    from repro import DatasetCollection, HashPartitioner, StarkContext

    sc = StarkContext(num_workers=8)
    hours = DatasetCollection(sc, HashPartitioner(8), namespace="logs",
                              window=3)
    for hour in range(4):                 # hour 0 slides out of the window
        hours.add(hour, sc.parallelize([(k, hour) for k in range(1000)], 8))
    rdds = list(hours.steps.values())
    merged = rdds[0].cogroup(*rdds[1:])   # narrow, fully local
    print(merged.count())
"""

from .cache import (
    CacheManager,
    CachePolicy,
    POLICY_NAMES,
    ReferenceTracker,
    ScoredPolicy,
    make_policy,
)
from .cluster import (
    Cluster,
    CostModel,
    EventQueue,
    RecordSizer,
    SimClock,
    SimKernel,
    TIME_EPS,
    Worker,
)
from .core import (
    CheckpointOptimizer,
    DatasetCollection,
    EdgeCheckpointer,
    ExtendablePartitioner,
    FlowNetwork,
    GroupManager,
    GroupTree,
    LocalityManager,
    MinimumContentionFirstPolicy,
    ReplicationManager,
)
from .engine import (
    FailureInjector,
    HashPartitioner,
    RDD,
    RangePartitioner,
    StarkConfig,
    StarkContext,
    StaticRangePartitioner,
)

__version__ = "1.0.0"

__all__ = [
    "CacheManager",
    "CachePolicy",
    "CheckpointOptimizer",
    "Cluster",
    "CostModel",
    "DatasetCollection",
    "EdgeCheckpointer",
    "EventQueue",
    "ExtendablePartitioner",
    "FailureInjector",
    "FlowNetwork",
    "GroupManager",
    "GroupTree",
    "HashPartitioner",
    "LocalityManager",
    "MinimumContentionFirstPolicy",
    "POLICY_NAMES",
    "RDD",
    "RangePartitioner",
    "RecordSizer",
    "ReferenceTracker",
    "ReplicationManager",
    "ScoredPolicy",
    "SimClock",
    "SimKernel",
    "TIME_EPS",
    "make_policy",
    "StarkConfig",
    "StarkContext",
    "StaticRangePartitioner",
    "Worker",
    "__version__",
]
