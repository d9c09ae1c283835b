"""Pluggable, lineage-aware cache management.

This package owns every caching policy decision the engine makes:

* :mod:`~repro.cache.policy` — the :class:`CachePolicy` eviction
  interface and its one implementation, :class:`ScoredPolicy`, whose
  score function makes it LRU, FIFO, LRC or cost-aware;
* :mod:`~repro.cache.reference_tracker` — driver-side reference counts
  over the lineage DAG, fed by DAGScheduler stage-completion hooks;
* :mod:`~repro.cache.manager` — the per-context coordinator wiring the
  above into the block manager and the schedulers;
* :mod:`~repro.cache.broker` — the cluster-wide cache broker
  (``StarkConfig.cache_broker``): global value-ranked eviction with
  migration and cross-job lineage-prefix sharing.

Select a policy via ``StarkConfig(cache_policy="lrc")`` (the benchmark
configs take one as ``make_setup(..., stark_config=...)``), or globally
via the CLI (``python -m repro --cache-policy lrc <figure>``).  See
``docs/CACHING.md``.
"""

from .broker import CacheBroker
from .manager import CacheManager
from .policy import (
    DEFAULTS,
    POLICY_NAMES,
    CacheDefaults,
    CachePolicy,
    ScoredPolicy,
    make_policy,
    set_default_policy,
    value_score,
)
from .reference_tracker import ReferenceTracker

__all__ = [
    "CacheBroker",
    "CacheDefaults",
    "CacheManager",
    "CachePolicy",
    "DEFAULTS",
    "POLICY_NAMES",
    "ReferenceTracker",
    "ScoredPolicy",
    "make_policy",
    "set_default_policy",
    "value_score",
]
