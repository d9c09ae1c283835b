"""Partitioners: map a record key to a partition id.

Mirrors Spark's contract: a partitioner is a deterministic pure function
``get_partition(key) -> int`` plus ``num_partitions``.  Two RDDs are
*co-partitioned* iff their partitioners compare equal — that is what lets
``cogroup``/``join`` use narrow dependencies instead of a shuffle.

``HashPartitioner``
    Spark's default; stable across processes here because it hashes via
    ``zlib.crc32`` on the key's repr rather than Python's salted ``hash``.

``RangePartitioner``
    Samples a dataset to pick split points that balance *that* dataset.
    Two range partitioners built from different datasets are unequal, so
    using a fresh one per RDD (the paper's **Spark-R** baseline) always
    forces a shuffle on cogroup.

``StaticRangePartitioner``
    Fixed, data-independent split points over a known key domain; sharing
    one across a dataset collection (the paper's **Stark-S**) gives
    co-partitioning but is defenceless against skew — the problem the
    extendable partitioner (``repro.core.extendable_partitioner``) solves.
"""

from __future__ import annotations

import bisect
import numbers
import zlib
from typing import Any, List, Sequence


def stable_hash(key: Any) -> int:
    """Deterministic, process-independent hash for partitioning.

    Python's builtin ``hash`` is salted per process for str/bytes; Spark's
    partitioning must be deterministic across executors and runs, so we
    hash a canonical byte encoding with CRC32.

    Numbers that compare equal hash equal within their kind: ``-0.0``
    hashes as ``0.0``, and numeric scalars that are not ``int``/``float``
    (numpy's ``np.int64``, ``np.float32``, ...) hash as the int or float
    they equal, never by a ``repr`` that differs between numpy versions.
    ``repro.columnar.kernels`` reproduces this function over whole
    columns and must stay bit-equal to it.
    """
    if isinstance(key, bytes):
        data = key
    elif isinstance(key, str):
        data = key.encode("utf-8")
    elif isinstance(key, bool):
        data = b"\x01" if key else b"\x00"
    elif isinstance(key, int):
        length = max(16, (key.bit_length() + 8) // 8)
        data = key.to_bytes(length, "little", signed=True)
    elif isinstance(key, float):
        # float(): np.float64 subclasses float but reprs as
        # "np.float64(...)"; ``or 0.0`` turns -0.0 (falsy) into 0.0.
        data = repr(float(key) or 0.0).encode("utf-8")
    elif isinstance(key, tuple):
        acc = 17
        for item in key:
            acc = (acc * 31 + stable_hash(item)) & 0xFFFFFFFF
        return acc
    elif isinstance(key, numbers.Integral):
        return stable_hash(int(key))
    elif isinstance(key, numbers.Real):
        return stable_hash(float(key))
    else:
        data = repr(key).encode("utf-8")
    return zlib.crc32(data) & 0xFFFFFFFF


class Partitioner:
    """Base class.  Subclasses must be value-comparable via ``__eq__``."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ValueError(f"need at least one partition: {num_partitions}")
        self.num_partitions = int(num_partitions)

    def get_partition(self, key: Any) -> int:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:  # pragma: no cover - abstract
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:  # pragma: no cover - subclasses override eq
        return object.__hash__(self)


class HashPartitioner(Partitioner):
    """Partition by stable hash of the key, Spark's default."""

    def get_partition(self, key: Any) -> int:
        return stable_hash(key) % self.num_partitions

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HashPartitioner)
            and other.num_partitions == self.num_partitions
        )

    def __hash__(self) -> int:
        return hash(("HashPartitioner", self.num_partitions))

    def __repr__(self) -> str:
        return f"HashPartitioner({self.num_partitions})"


class StaticRangePartitioner(Partitioner):
    """Range partitioning with fixed, data-independent boundaries.

    ``bounds`` are the ``num_partitions - 1`` ascending upper boundaries:
    keys ``<= bounds[i]`` (and above ``bounds[i-1]``) go to partition
    ``i``; keys above the last bound go to the final partition.
    """

    def __init__(self, bounds: Sequence[Any]) -> None:
        bounds = list(bounds)
        if any(bounds[i] >= bounds[i + 1] for i in range(len(bounds) - 1)):
            raise ValueError(f"bounds must be strictly ascending: {bounds}")
        super().__init__(len(bounds) + 1)
        self.bounds: List[Any] = bounds

    @classmethod
    def uniform(cls, lo: int, hi: int, num_partitions: int) -> "StaticRangePartitioner":
        """Evenly split the integer key domain ``[lo, hi)``."""
        if hi <= lo:
            raise ValueError(f"empty key domain: [{lo}, {hi})")
        if num_partitions <= 0:
            raise ValueError(f"need at least one partition: {num_partitions}")
        step = (hi - lo) / num_partitions
        bounds = [lo + int(step * (i + 1)) - 1 for i in range(num_partitions - 1)]
        # Deduplicate in tiny domains where steps collapse.
        dedup: List[int] = []
        for b in bounds:
            if not dedup or b > dedup[-1]:
                dedup.append(b)
        return cls(dedup)

    def get_partition(self, key: Any) -> int:
        return bisect.bisect_left(self.bounds, key)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StaticRangePartitioner)
            and other.bounds == self.bounds
        )

    def __hash__(self) -> int:
        return hash(("StaticRangePartitioner", tuple(self.bounds)))

    def __repr__(self) -> str:
        return f"StaticRangePartitioner({self.num_partitions} partitions)"


class RangePartitioner(StaticRangePartitioner):
    """Range partitioner whose boundaries are sampled from a dataset.

    Matches Spark: each construction samples the RDD being partitioned, so
    two instances built from different data are *not* equal even with the
    same partition count — the behaviour that makes the paper's Spark-R
    baseline shuffle on every cogroup.
    """

    _instance_counter = 0

    def __init__(self, num_partitions: int, sample_keys: Sequence[Any]) -> None:
        keys = sorted(sample_keys)
        if not keys:
            raise ValueError("RangePartitioner needs a non-empty key sample")
        bounds: List[Any] = []
        for i in range(1, num_partitions):
            idx = min(len(keys) - 1, int(len(keys) * i / num_partitions))
            candidate = keys[idx]
            if not bounds or candidate > bounds[-1]:
                bounds.append(candidate)
        StaticRangePartitioner.__init__(self, bounds)
        RangePartitioner._instance_counter += 1
        self._instance_id = RangePartitioner._instance_counter

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RangePartitioner) and other._instance_id == self._instance_id

    def __hash__(self) -> int:
        return hash(("RangePartitioner", self._instance_id))

    def __repr__(self) -> str:
        return f"RangePartitioner(#{self._instance_id}, {self.num_partitions} partitions)"
