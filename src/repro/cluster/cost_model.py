"""Cost model: translates physical effects into simulated seconds.

Every delay the benchmarks report flows through this module, so the
constants are documented and calibrated against the absolute numbers the
paper reports for its 50-server testbed (Dell R610/R620, 16 GB RAM
executors, GbE network, spinning disks):

* Fig 1(b): loading + hash-partitioning a 700 MB text file over two
  partitions takes ~17 s end to end; the cached follow-up count takes
  ~0.2 s; recomputing from shuffle outputs takes ~9 s.
* Fig 7: per-task launch overhead makes 10^4 partitions slower than 10^2.
* Fig 12: cogrouping six ~800 MB RDDs on 8 executors pushes heaps near
  capacity and GC time explodes superlinearly.

The model is deliberately simple — linear in bytes/records with a convex
GC term — because the paper's effects are first-order: locality decides
whether a stage reads RAM or re-executes a shuffle over disk + network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class CostModel:
    """Simulated-time cost parameters.

    All rates are for one executor core.  Sizes are bytes, record counts
    are plain counts, returned costs are seconds.
    """

    #: CPU cost of applying one narrow transformation to one record.
    cpu_per_record: float = 2.0e-7
    #: Extra CPU cost per record on the reduce side of a shuffle
    #: (deserialize + aggregate).
    shuffle_cpu_per_record: float = 4.0e-7
    #: CPU cost per record inside one vectorized columnar kernel
    #: (``repro.columnar``).  Columnar execution amortizes interpreter
    #: dispatch over whole arrays, so the per-record cost is ~25x below
    #: ``cpu_per_record`` — the order-of-magnitude cut Shark reports for
    #: columnar storage + vectorized operators.
    columnar_cpu_per_record: float = 8.0e-9
    #: Fixed cost of launching one columnar kernel over one batch
    #: (dispatch, dtype checks, output allocation).  Keeps tiny batches
    #: from looking free and drives the row-vs-columnar crossover.
    columnar_kernel_overhead: float = 1.0e-4
    #: Sequential disk bandwidth (bytes/s) — reading text files, shuffle
    #: spills, checkpoint writes.  ~120 MB/s spinning disk.
    disk_bytes_per_sec: float = 120e6
    #: Network bandwidth per flow (bytes/s) — remote shuffle fetch.
    #: ~1 GbE with protocol overhead.
    network_bytes_per_sec: float = 90e6
    #: Fixed latency for opening a remote fetch connection.
    network_latency: float = 1.0e-3
    #: Serialization/deserialization throughput (bytes/s).
    serde_bytes_per_sec: float = 400e6
    #: Reading a cached block from local RAM (bytes/s).
    memory_bytes_per_sec: float = 8e9
    #: Zero-copy handoff between co-located executors (bytes/s): when a
    #: shuffle fetch's source and destination share a worker and
    #: ``StarkConfig.zero_copy_handoff`` is on, the block *reference* is
    #: handed over through shared memory (Sparkle's shared-memory
    #: shuffle) instead of being read back from local disk — no disk
    #: pass, no serialization.  Page-remap plus a metadata exchange is
    #: cheaper than a full RAM scan of the payload, hence faster than
    #: ``memory_bytes_per_sec``.
    intra_worker_bytes_per_sec: float = 24e9
    #: Fixed per-task launch cost (scheduling, serialization of the task
    #: closure, executor dispatch).  Drives the right side of Fig 7.
    task_launch_overhead: float = 8.0e-3
    #: Per-task cost paid by the driver for bookkeeping; drives scheduler
    #: saturation when tasks are tiny.
    driver_overhead_per_task: float = 1.2e-3
    #: GC model: baseline fraction of compute time spent in GC when the
    #: heap is relaxed.
    gc_base_fraction: float = 0.04
    #: GC model: pressure knee — above this heap utilisation GC cost grows
    #: superlinearly.
    gc_pressure_knee: float = 0.6
    #: GC model: steepness of the superlinear term.
    gc_pressure_power: float = 3.0
    #: GC model: multiplier of the superlinear term.
    gc_pressure_scale: float = 6.0
    #: Simulated seconds to provision one new executor (container/VM
    #: spin-up + executor registration); a scale-out's new slots only
    #: open this long after the scaling decision (``repro.elastic``).
    worker_spinup_seconds: float = 8.0

    # ---- primitive costs -------------------------------------------------

    def compute_cost(self, records: int) -> float:
        """CPU seconds for a narrow transformation over ``records``."""
        return records * self.cpu_per_record

    def shuffle_reduce_cost(self, records: int) -> float:
        """CPU seconds for the reduce side of a shuffle over ``records``."""
        return records * self.shuffle_cpu_per_record

    def columnar_compute_cost(self, records: int, kernels: int = 1) -> float:
        """CPU seconds for ``kernels`` vectorized kernels over a batch of
        ``records`` rows."""
        return kernels * self.columnar_kernel_overhead \
            + records * self.columnar_cpu_per_record

    def disk_read_cost(self, size_bytes: float) -> float:
        """Seconds to read ``size_bytes`` sequentially from local disk."""
        return size_bytes / self.disk_bytes_per_sec

    def disk_write_cost(self, size_bytes: float) -> float:
        """Seconds to write ``size_bytes`` sequentially to local disk."""
        return size_bytes / self.disk_bytes_per_sec

    def network_cost(self, size_bytes: float) -> float:
        """Seconds to move ``size_bytes`` over one network flow."""
        if size_bytes <= 0:
            return 0.0
        return self.network_latency + size_bytes / self.network_bytes_per_sec

    def serde_cost(self, size_bytes: float) -> float:
        """Seconds to serialize or deserialize ``size_bytes``."""
        return size_bytes / self.serde_bytes_per_sec

    def memory_read_cost(self, size_bytes: float) -> float:
        """Seconds to scan a cached block of ``size_bytes`` from RAM."""
        return size_bytes / self.memory_bytes_per_sec

    def intra_worker_cost(self, size_bytes: float) -> float:
        """Seconds to hand ``size_bytes`` between co-located executors by
        reference (zero-copy shared-memory transfer)."""
        return size_bytes / self.intra_worker_bytes_per_sec

    def gc_cost(self, compute_seconds: float, heap_utilisation: float) -> float:
        """GC seconds charged on top of ``compute_seconds``.

        Below the knee, GC is a small constant fraction of compute.  Above
        it, the fraction grows as ``scale * (u - knee)^power``, modelling
        full-heap collections: at u=0.95 with the defaults the fraction is
        ~0.3, i.e. GC takes a third as long as the work itself — matching
        the white bars of Fig 12 for the 6-RDD cogroup.
        """
        u = min(max(heap_utilisation, 0.0), 1.0)
        fraction = self.gc_base_fraction
        if u > self.gc_pressure_knee:
            over = (u - self.gc_pressure_knee) / (1.0 - self.gc_pressure_knee)
            fraction += self.gc_pressure_scale * (over ** self.gc_pressure_power) \
                * self.gc_base_fraction * 2.0
        return compute_seconds * fraction


@dataclass(frozen=True)
class HeterogeneityModel:
    """Worker heterogeneity: slow hardware and transient slowdowns.

    The default model is the identity: every worker runs at unit speed
    and never slows down — applying it changes nothing, so existing
    experiments are bit-identical.  Non-trivial settings are
    sampled onto a cluster via :meth:`repro.cluster.Cluster.apply_heterogeneity`
    (which draws from the cluster's seeded RNG for reproducibility):

    * a ``slow_worker_fraction`` of workers runs *all* tasks at
      ``slow_worker_speed`` × their nominal duration (old hardware,
      degraded disks);
    * every worker independently suffers transient slowdown *windows*
      (JVM full GCs, noisy neighbours): window starts form a Poisson
      process with rate ``transient_rate`` per simulated second over
      ``[0, horizon)``, each lasting ``transient_duration`` seconds
      during which work progresses ``transient_factor`` × slower.

    Outright task and fetch failures are not part of the model: they are
    ``StarkConfig.task_failure_prob`` / ``fetch_failure_prob`` (see
    ``docs/FAULT_TOLERANCE.md``).
    """

    #: Fraction of workers sampled as uniformly slow.
    slow_worker_fraction: float = 0.0
    #: Wall-time multiplier (>= 1) for slow workers.
    slow_worker_speed: float = 1.0
    #: Transient slowdown windows per worker per simulated second.
    transient_rate: float = 0.0
    #: Length of one transient slowdown window, seconds.
    transient_duration: float = 0.0
    #: Wall-time multiplier (>= 1) while inside a window.
    transient_factor: float = 1.0
    #: Windows are pre-sampled over ``[0, horizon)`` simulated seconds.
    horizon: float = 0.0

    def __post_init__(self) -> None:
        if self.slow_worker_speed < 1.0 or self.transient_factor < 1.0:
            raise ValueError("slowdown multipliers must be >= 1")
        if not 0.0 <= self.slow_worker_fraction <= 1.0:
            raise ValueError(
                "slow_worker_fraction must be a probability: "
                f"{self.slow_worker_fraction}")
        if self.transient_rate < 0 or self.transient_duration < 0 \
                or self.horizon < 0:
            raise ValueError("transient window parameters must be >= 0")

    def sample_speed(self, rng) -> float:
        """Draw one worker's constant speed multiplier."""
        if self.slow_worker_fraction > 0 \
                and rng.random() < self.slow_worker_fraction:
            return self.slow_worker_speed
        return 1.0

    def sample_slowdowns(self, rng):
        """Draw one worker's transient windows: ``[(start, end, factor)]``."""
        windows = []
        if self.transient_rate <= 0 or self.transient_duration <= 0 \
                or self.transient_factor <= 1.0:
            return windows
        t = rng.expovariate(self.transient_rate)
        while t < self.horizon:
            windows.append((t, t + self.transient_duration,
                            self.transient_factor))
            t += self.transient_duration
            t += rng.expovariate(self.transient_rate)
        return windows


class SimStr(str):
    """A string carrying a *simulated* byte size.

    Workload generators emit short real strings standing in for large
    records (a 40-byte line simulating a 40 kB one): all string operations
    work normally, but the :class:`RecordSizer` accounts ``sim_size``
    bytes.  This keeps Python-side memory and CPU proportional to the
    record *count* while disk/network/GC costs follow the simulated
    *bytes* — the quantity the paper's effects depend on.
    """

    __slots__ = ("sim_size",)

    def __new__(cls, value: str, sim_size: Optional[int] = None) -> "SimStr":
        self = super().__new__(cls, value)
        self.sim_size = len(value) if sim_size is None else int(sim_size)
        return self


_FIXED_WIDTH = frozenset((int, float, bool, type(None)))


def _payload(value: object) -> int:
    """Serialized payload bytes of ``value`` — the record minus its header.

    Exact builtin types are dispatched on ``type(v) is`` with the leaf
    cases unrolled inside the container loop (none of them can carry a
    ``sim_size``, so skipping the probe changes nothing); subclasses,
    size-declaring objects, dicts and opaque objects take the generic
    rules below.  Rules and precedence: ``docs/COST_MODEL.md``.
    """
    kind = type(value)
    if kind is tuple or kind is list:
        total = 8 * len(value)
        for v in value:
            kind = type(v)
            if kind in _FIXED_WIDTH:
                total += 8
            elif kind is SimStr:
                total += v.sim_size
            elif kind is str or kind is bytes:
                total += len(v)
            else:
                total += _payload(v)
        return total
    declared = getattr(value, "sim_size", None)
    if declared is not None:
        return int(declared)
    if value is None or isinstance(value, (bool, int, float)):
        return 8
    if isinstance(value, (str, bytes)):
        return len(value)
    if isinstance(value, (tuple, list)):
        return sum(_payload(v) for v in value) + 8 * len(value)
    if isinstance(value, dict):
        return sum(_payload(k) + _payload(v) for k, v in value.items())
    return 48  # opaque object


#: ``int * float`` is exact while the product's numerator fits a double.
_EXACT_BELOW = 2 ** 53


@dataclass(frozen=True)
class RecordSizer:
    """Maps records to byte sizes for cache/shuffle/checkpoint accounting.

    Real Spark measures block sizes after serialization; we approximate a
    record's footprint from its Python shape.  A fixed ``base`` covers
    object headers; strings/bytes add their length; tuples recurse.  Any
    object exposing a ``sim_size`` attribute declares its own serialized
    size (see :class:`SimStr`).

    ``memory_overhead`` is the deserialized-objects blow-up factor: a JVM
    heap holds strings/boxed objects at ~2-3x their serialized size, so
    cached blocks occupy ``memory_overhead`` times the serialized bytes.
    This single constant is also why Fig 17 sees a constant ratio between
    cached RDD sizes and checkpoint sizes.
    """

    base: int = 24
    memory_overhead: float = 2.5

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError(f"base must be >= 0: {self.base}")
        if not (self.memory_overhead > 0 and math.isfinite(self.memory_overhead)):
            raise ValueError(
                f"memory_overhead must be finite and > 0: {self.memory_overhead}")

    def size_of(self, record: object) -> int:
        return self.base + _payload(record)

    def size_of_partition(self, records) -> int:
        base = self.base
        total = 0
        for r in records:
            total += base + _payload(r)
        return total

    def in_memory_size(self, records, serialized: Optional[int] = None) -> float:
        """Deserialized (heap) footprint of a cached partition.

        A record exposing ``sim_memory_size`` declares its own heap
        footprint and skips the deserialized-objects blow-up — columnar
        batches (``repro.columnar``) sit in contiguous typed arrays, so
        their in-memory size *is* their byte size plus one object header.
        Everything else pays ``memory_overhead`` on its serialized size.

        ``serialized`` is ``size_of_partition(records)`` when the caller
        already has it: if no record declares a heap size and every
        per-record product and partial sum is exactly representable
        (``memory_overhead`` = n/2^k with ``serialized * n < 2^53`` — any
        partition under 1.8 PB at the default 2.5), the per-record
        accumulation equals ``serialized * memory_overhead`` bit for bit
        and the records are not walked again.
        """
        base, overhead = self.base, self.memory_overhead
        if serialized is not None and \
                serialized * overhead.as_integer_ratio()[0] < _EXACT_BELOW:
            for r in records:  # an exact tuple cannot declare anything
                if type(r) is not tuple \
                        and getattr(r, "sim_memory_size", None) is not None:
                    break
            else:
                return float(serialized * overhead)
        total = 0.0
        for r in records:
            declared = getattr(r, "sim_memory_size", None)
            if declared is not None:
                total += base + declared
            else:
                total += (base + _payload(r)) * overhead
        return total
