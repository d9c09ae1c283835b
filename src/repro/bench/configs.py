"""The paper's evaluation configurations (§IV-A).

Five partitioning/locality configurations:

* **Spark-R** — a new RangePartitioner per RDD;
* **Spark-H** — one shared HashPartitioner, no locality management;
* **Stark-H** — shared HashPartitioner + co-locality only;
* **Stark-S** — shared StaticRangePartitioner + co-locality only;
* **Stark-E** — Stark-S plus extendable partition groups.

Plus the checkpointing variants of §IV-D: **Stark-1** (exact optimum),
**Stark-3** (relaxation f=3), and **Tachyon** (Edge algorithm).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..cluster.cluster import Cluster
from ..cluster.cost_model import CostModel
from ..core.extendable_partitioner import ExtendablePartitioner
from ..engine.context import StarkConfig, StarkContext
from ..engine.partitioner import (
    HashPartitioner,
    Partitioner,
    StaticRangePartitioner,
)

SPARK_R = "Spark-R"
SPARK_H = "Spark-H"
STARK_H = "Stark-H"
STARK_S = "Stark-S"
STARK_E = "Stark-E"

ALL_CONFIGS = (SPARK_R, SPARK_H, STARK_H, STARK_S, STARK_E)


@dataclass(frozen=True)
class ClusterSpec:
    """Hardware shape of one experiment."""

    num_workers: int = 8
    cores_per_worker: int = 4
    memory_per_worker: float = 4e9
    cost_model: Optional[CostModel] = None
    seed: int = 0


@dataclass
class ExperimentSetup:
    """A ready-to-use context + partitioner for one configuration."""

    name: str
    context: StarkContext
    partitioner: Optional[Partitioner]
    #: "range-per-rdd" | "shared" — how the app should partition RDDs.
    partition_mode: str
    #: Whether RDDs should register co-locality namespaces.
    locality: bool


def make_context(
    name: str,
    spec: ClusterSpec,
    stark_config: Optional[StarkConfig] = None,
) -> StarkContext:
    """Build a context with the feature switches of configuration ``name``.

    Every other knob, the cache policy included, comes from
    ``stark_config`` (whose cache fields default to the CLI-settable
    ``repro.cache.DEFAULTS``).
    """
    if name not in ALL_CONFIGS:
        raise ValueError(f"unknown configuration {name!r}; pick from {ALL_CONFIGS}")
    is_stark = name.startswith("Stark")
    config = stark_config or StarkConfig()
    config = replace(
        config,
        locality_enabled=is_stark,
        mcf_enabled=is_stark,
        replication_enabled=is_stark,
    )
    cluster = Cluster(
        num_workers=spec.num_workers,
        cores_per_worker=spec.cores_per_worker,
        memory_per_worker=spec.memory_per_worker,
        cost_model=spec.cost_model,
        seed=spec.seed,
    )
    return StarkContext(cluster=cluster, config=config)


def make_setup(
    name: str,
    spec: ClusterSpec,
    num_partitions: int = 8,
    key_lo: int = 0,
    key_hi: int = 1 << 16,
    groups: int = 4,
    partitions_per_group: int = 4,
    stark_config: Optional[StarkConfig] = None,
) -> ExperimentSetup:
    """Build the context *and* the partitioner each configuration uses.

    ``key_lo``/``key_hi`` bound the integer key domain for the range
    partitioners (Z-encoded keys for taxi workloads).
    """
    context = make_context(name, spec, stark_config)
    partitioner: Optional[Partitioner]
    partition_mode = "shared"
    if name == SPARK_R:
        partitioner = None
        partition_mode = "range-per-rdd"
    elif name in (SPARK_H, STARK_H):
        partitioner = HashPartitioner(num_partitions)
    elif name == STARK_S:
        partitioner = StaticRangePartitioner.uniform(key_lo, key_hi, num_partitions)
    else:  # STARK_E
        partitioner = ExtendablePartitioner.over_key_range(
            key_lo, key_hi, groups, partitions_per_group
        )
    return ExperimentSetup(
        name=name,
        context=context,
        partitioner=partitioner,
        partition_mode=partition_mode,
        locality=name.startswith("Stark"),
    )
