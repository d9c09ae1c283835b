"""Checkpoint storage: a simulated reliable store (HDFS stand-in).

Checkpointing an RDD serializes every partition and writes it (with
replication) to the reliable store; from then on, evaluation of that RDD
short-circuits at the checkpoint — the lineage above it never re-runs.
The store tracks cumulative written bytes, the quantity Fig 18 plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Copies the reliable store keeps of every checkpointed partition
#: (HDFS's default); each copy past the first crosses the network.
REPLICATION = 3


@dataclass
class CheckpointRecord:
    """Bookkeeping for one checkpointed RDD."""

    rdd_id: int
    total_bytes: float
    time: float


class CheckpointStore:
    """Reliable, replicated storage for checkpointed partitions."""

    def __init__(self) -> None:
        # rdd_id -> pid -> (size_bytes, records)
        self._partitions: Dict[int, Dict[int, Tuple[float, list]]] = {}
        self.history: List[CheckpointRecord] = []
        self.total_bytes_written: float = 0.0

    def write(self, rdd_id: int, pid: int, size_bytes: float, records: list) -> None:
        self._partitions.setdefault(rdd_id, {})[pid] = (size_bytes, records)
        self.total_bytes_written += size_bytes

    def commit(self, rdd_id: int, time: float) -> CheckpointRecord:
        """Finalize a checkpoint of ``rdd_id``; returns its record."""
        parts = self._partitions.get(rdd_id)
        if not parts:
            raise RuntimeError(f"no partitions written for rdd {rdd_id}")
        record = CheckpointRecord(
            rdd_id=rdd_id,
            total_bytes=sum(size for size, _ in parts.values()),
            time=time,
        )
        self.history.append(record)
        return record

    def read(self, rdd_id: int, pid: int) -> Optional[Tuple[float, list]]:
        parts = self._partitions.get(rdd_id)
        if parts is None:
            return None
        return parts.get(pid)

    def has_checkpoint(self, rdd_id: int) -> bool:
        return rdd_id in self._partitions

    def checkpoint_bytes(self, rdd_id: int) -> float:
        parts = self._partitions.get(rdd_id, {})
        return sum(size for size, _ in parts.values())

    def checkpointed_rdd_ids(self) -> List[int]:
        return sorted(self._partitions)
