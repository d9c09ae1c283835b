"""Pluggable, lineage-aware cache management.

This package owns every caching policy decision the engine makes:

* :mod:`~repro.cache.policy` — the :class:`CachePolicy` eviction
  interface and its four implementations (LRU, FIFO, LRC, cost-aware);
* :mod:`~repro.cache.reference_tracker` — driver-side reference counts
  over the lineage DAG, fed by DAGScheduler stage-completion hooks;
* :mod:`~repro.cache.admission` — refuses blocks cheaper to recompute
  than a configurable threshold;
* :mod:`~repro.cache.manager` — the per-context coordinator wiring the
  above into the block manager and the schedulers;
* :mod:`~repro.cache.broker` — the cluster-wide cache broker
  (``StarkConfig.cache_broker``): global value-ranked eviction with
  migration, cross-job lineage-prefix sharing, and the memory-market
  scoring elastic scale-in consults.

Select a policy via ``StarkConfig(cache_policy="lrc")`` (the benchmark
configs take one as ``make_setup(..., stark_config=...)``), or globally
via the CLI (``python -m repro --cache-policy lrc <figure>``).  See
``docs/CACHING.md``.
"""

from .admission import AdmissionController
from .broker import CacheBroker
from .manager import CacheManager
from .policy import (
    DEFAULTS,
    POLICY_NAMES,
    CacheDefaults,
    CachePolicy,
    CostAwarePolicy,
    FIFOPolicy,
    LRCPolicy,
    LRUPolicy,
    make_policy,
    set_default_admission_min_cost,
    set_default_policy,
    value_score,
)
from .reference_tracker import ReferenceTracker

__all__ = [
    "AdmissionController",
    "CacheBroker",
    "CacheDefaults",
    "CacheManager",
    "CachePolicy",
    "CostAwarePolicy",
    "DEFAULTS",
    "FIFOPolicy",
    "LRCPolicy",
    "LRUPolicy",
    "POLICY_NAMES",
    "ReferenceTracker",
    "make_policy",
    "set_default_admission_min_cost",
    "set_default_policy",
    "value_score",
]
