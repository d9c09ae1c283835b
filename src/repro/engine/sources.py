"""Source RDDs: where data enters the engine.

``ParallelCollectionRDD``
    Driver-held data sliced into partitions (``sc.parallelize``); first
    materialization charges serialization + network ship to the executor.

``TextFileRDD``
    A file read (``sc.text_file``).  Partition contents come from a
    deterministic generator function keyed by partition id, so lineage
    recovery regenerates identical data without the driver keeping it.
    Materialization charges a sequential disk read of the partition bytes.

``GeneratedRDD``
    Generic deterministic source used by workload generators: a pure
    function ``pid -> records``.  Nothing declares a partition's bytes up
    front: each materialization sizes the generated records with the
    cluster's :class:`~repro.cluster.cost_model.RecordSizer` (a walk of
    the partition, short for records that declare ``sim_size``, such as
    columnar batches) and charges the read by that size.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

from .partitioner import Partitioner
from .rdd import RDD

if TYPE_CHECKING:  # pragma: no cover
    from .compute import EvalContext
    from .context import StarkContext


class ParallelCollectionRDD(RDD):
    """Driver-side collection split into ``num_partitions`` slices."""

    def __init__(
        self,
        context: "StarkContext",
        data: Sequence,
        num_partitions: int,
        partitioner: Optional[Partitioner] = None,
        name: str = "",
    ) -> None:
        super().__init__(context, [], num_partitions, partitioner=partitioner,
                         name=name or "parallelize")
        data = list(data)
        if partitioner is not None:
            if partitioner.num_partitions != num_partitions:
                raise ValueError(
                    f"partitioner has {partitioner.num_partitions} partitions, "
                    f"RDD declared {num_partitions}"
                )
            self._slices: List[list] = [[] for _ in range(num_partitions)]
            for record in data:
                self._slices[partitioner.get_partition(record[0])].append(record)
        else:
            self._slices = [[] for _ in range(num_partitions)]
            for i, record in enumerate(data):
                self._slices[i % num_partitions].append(record)

    def compute(self, pid: int, ctx: "EvalContext") -> list:
        records = list(self._slices[pid])
        ctx.charge_driver_ship(self, records)
        return records


class GeneratedRDD(RDD):
    """Deterministic generated source: ``generator(pid) -> records``.

    ``read_cost`` selects how materialization is charged:
    ``"disk"`` (local file / HDFS block read), ``"network"`` (stream
    receiver block), or ``"none"`` (already in memory at the source).
    The charge scales with the partition's serialized size, measured by
    walking the generated records on every materialization.
    """

    def __init__(
        self,
        context: "StarkContext",
        generator: Callable[[int], list],
        num_partitions: int,
        partitioner: Optional[Partitioner] = None,
        read_cost: str = "disk",
        name: str = "",
    ) -> None:
        if read_cost not in ("disk", "network", "none"):
            raise ValueError(f"unknown read_cost {read_cost!r}")
        super().__init__(context, [], num_partitions, partitioner=partitioner,
                         name=name or "generated")
        self.generator = generator
        self.read_cost = read_cost

    def compute(self, pid: int, ctx: "EvalContext") -> list:
        records = self.generator(pid)
        if not isinstance(records, list):
            records = list(records)
        ctx.charge_source_read(self, records, self.read_cost)
        return records


class TextFileRDD(GeneratedRDD):
    """A text file whose lines are produced by a deterministic generator."""

    def __init__(
        self,
        context: "StarkContext",
        line_generator: Callable[[int], List[str]],
        num_partitions: int,
        name: str = "",
    ) -> None:
        super().__init__(context, line_generator, num_partitions,
                         read_cost="disk", name=name or "text_file")
