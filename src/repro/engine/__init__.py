"""Spark-core-equivalent execution engine (simulated cluster backend)."""

from .block_manager import Block, BlockManagerMaster, BlockStore
from .checkpoint import CheckpointRecord, CheckpointStore
from .compute import EvalContext, RDDStats
from .context import StarkConfig, StarkContext
from .dag_scheduler import DAGScheduler
from .dependency import Dependency, OneToOneDependency, ShuffleDependency
from .failure import (
    FailureEvent,
    FailureInjector,
    FailureSchedule,
    RecoveryReport,
)
from .metrics import JobMetrics, MetricsCollector, TaskMetrics
from .partitioner import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    StaticRangePartitioner,
    stable_hash,
)
from .rdd import RDD
from .shuffle import MapOutput, MapOutputTracker
from .shuffled import CoGroupedRDD, LocalityShuffledRDD, ShuffledRDD
from .sources import GeneratedRDD, ParallelCollectionRDD, TextFileRDD
from .stage import Stage
from .task import (
    GroupResultTask,
    GroupShuffleMapTask,
    ResultTask,
    ShuffleMapTask,
    Task,
)
from .task_scheduler import (
    ANY,
    PROCESS_LOCAL,
    DefaultRemotePolicy,
    TaskScheduler,
)

__all__ = [
    "ANY",
    "Block",
    "BlockManagerMaster",
    "BlockStore",
    "CheckpointRecord",
    "CheckpointStore",
    "CoGroupedRDD",
    "DAGScheduler",
    "DefaultRemotePolicy",
    "Dependency",
    "EvalContext",
    "FailureEvent",
    "FailureInjector",
    "FailureSchedule",
    "GeneratedRDD",
    "GroupResultTask",
    "GroupShuffleMapTask",
    "HashPartitioner",
    "JobMetrics",
    "LocalityShuffledRDD",
    "MapOutput",
    "MapOutputTracker",
    "MetricsCollector",
    "OneToOneDependency",
    "PROCESS_LOCAL",
    "ParallelCollectionRDD",
    "Partitioner",
    "RDD",
    "RDDStats",
    "RangePartitioner",
    "RecoveryReport",
    "ResultTask",
    "ShuffleDependency",
    "ShuffleMapTask",
    "ShuffledRDD",
    "Stage",
    "StarkConfig",
    "StarkContext",
    "StaticRangePartitioner",
    "Task",
    "TaskMetrics",
    "TaskScheduler",
    "TextFileRDD",
    "stable_hash",
]
