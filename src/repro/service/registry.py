"""DatasetRegistry: named, versioned, branchable handles over cached RDDs.

The registry is the "dynamic dataset collection" made first-class: a
dataset is a ``name`` with a monotonically growing version history, each
version backed by one cached RDD.  Tenants interact through refcounted
:class:`DatasetHandle`\\ s:

* :meth:`DatasetRegistry.register` files a computation as the next
  version of a name.  The RDD's **lineage fingerprint**
  (:func:`~repro.engine.lineage.lineage_fingerprint`) is checked first:
  if another live registration already owns a structurally identical
  computation, the new version *aliases* that RDD — two tenants
  registering the same pipeline share one cached copy, and the second
  tenant's jobs are served from the first tenant's blocks.
* :meth:`DatasetRegistry.branch` forks ``new_name@1`` from an existing
  version, sharing the underlying RDD (copy-on-write at the lineage
  level: deriving from a branch builds new RDDs, never mutates).
* :meth:`DatasetRegistry.drop` retires a version.  The backing RDD is
  only unpersisted once **every** pin drains: other live versions
  (aliases, branches) and outstanding handles each hold one pin, so a
  tenant can never yank blocks out from under another tenant's lookup —
  unpersist is deferred to the last :meth:`DatasetHandle.release`.

All bookkeeping is insertion-ordered; registration order fully
determines behaviour, keeping the event log byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..engine.lineage import lineage_fingerprint
from ..obs.events import DatasetBranched, DatasetDropped, DatasetRegistered

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.context import StarkContext
    from ..engine.rdd import RDD


def parse_dataset_ref(ref: str) -> Tuple[str, Optional[int]]:
    """Split ``"name"`` / ``"name@3"`` into ``(name, version | None)``."""
    if "@" in ref:
        name, _, version = ref.rpartition("@")
        if not name:
            raise ValueError(f"invalid dataset reference {ref!r}")
        try:
            return name, int(version)
        except ValueError:
            raise ValueError(
                f"invalid version in dataset reference {ref!r}") from None
    return ref, None


@dataclass
class _VersionEntry:
    """One ``name@version`` record."""

    name: str
    version: int
    rdd_id: int
    tenant: str          # who registered it
    fingerprint: str
    dropped: bool = False
    handles: int = 0     # live DatasetHandles over this version


@dataclass
class DatasetHandle:
    """A tenant's refcounted lease on one dataset version.

    While the handle is live, the backing RDD's cached blocks cannot be
    unpersisted — even if the version (or the whole name) is dropped.
    Handles are context managers; exiting releases.
    """

    registry: "DatasetRegistry" = field(repr=False)
    name: str
    version: int
    rdd_id: int
    tenant: str
    #: The backing RDD, held by the handle itself: the context only
    #: tracks RDDs weakly.
    rdd: "RDD" = field(repr=False)
    released: bool = False

    @property
    def ref(self) -> str:
        return f"{self.name}@{self.version}"

    def release(self) -> None:
        if not self.released:
            self.released = True
            self.registry._release(self)

    def __enter__(self) -> "DatasetHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class DatasetRegistry:
    """The driver-side catalogue of named dataset versions."""

    def __init__(self, context: "StarkContext") -> None:
        self.context = context
        self._versions: Dict[str, List[_VersionEntry]] = {}
        #: fingerprint -> the live (pinned) RDD of that computation; every
        #: undropped version's RDD is here, held until its pins drain.
        self._by_fingerprint: Dict[str, "RDD"] = {}
        #: rdd_id -> pin count (one per undropped version + one per live
        #: handle); the RDD unpersists when its pins drain to zero.
        self._pins: Dict[int, int] = {}
        #: Registrations answered by fingerprint dedup (diagnostics).
        self.dedup_hits: int = 0
        #: Lifecycle counters (ground truth for event reconciliation).
        self.registered_versions: int = 0
        self.branched_versions: int = 0
        self.dropped_versions: int = 0

    # ---- queries ------------------------------------------------------------

    def names(self) -> List[str]:
        return list(self._versions)

    def versions_of(self, name: str) -> List[int]:
        return [e.version for e in self._versions.get(name, [])
                if not e.dropped]

    def pins_of(self, rdd_id: int) -> int:
        return self._pins.get(rdd_id, 0)

    # ---- lifecycle ----------------------------------------------------------

    def register(self, tenant: str, name: str,
                 rdd: "RDD") -> DatasetHandle:
        """File ``rdd`` as the next version of ``name``; returns a live
        handle the caller must eventually release."""
        fingerprint = lineage_fingerprint(rdd)
        canonical = self._by_fingerprint.get(fingerprint)
        deduped = canonical is not None and canonical.rdd_id != rdd.rdd_id
        if canonical is None:
            canonical = self._by_fingerprint[fingerprint] = rdd
        else:
            self.dedup_hits += int(deduped)
        canonical_id = canonical.rdd_id
        canonical.cached = True
        history = self._versions.setdefault(name, [])
        version = history[-1].version + 1 if history else 1
        entry = _VersionEntry(name=name, version=version,
                              rdd_id=canonical_id, tenant=tenant,
                              fingerprint=fingerprint, handles=1)
        history.append(entry)
        # One pin for the undropped version itself + one for the handle.
        self._pins[canonical_id] = self._pins.get(canonical_id, 0) + 2
        self.registered_versions += 1
        bus = self.context.event_bus
        if bus.active:
            bus.post(DatasetRegistered(
                time=self.context.now, tenant=tenant, name=name,
                version=version, rdd_id=canonical_id, deduped=deduped))
        return DatasetHandle(registry=self, name=name, version=version,
                             rdd_id=canonical_id, tenant=tenant,
                             rdd=canonical)

    def lookup(self, tenant: str, ref: str) -> DatasetHandle:
        """Open a handle on ``"name"`` (latest live version) or
        ``"name@V"``."""
        entry = self._resolve(ref)
        entry.handles += 1
        self._pins[entry.rdd_id] = self._pins.get(entry.rdd_id, 0) + 1
        return DatasetHandle(registry=self, name=entry.name,
                             version=entry.version, rdd_id=entry.rdd_id,
                             tenant=tenant,
                             rdd=self._by_fingerprint[entry.fingerprint])

    def branch(self, tenant: str, ref: str,
               new_name: str) -> DatasetHandle:
        """Fork ``new_name@1`` from an existing version, sharing its RDD
        (and therefore its cached blocks)."""
        if self._versions.get(new_name):
            raise ValueError(f"dataset {new_name!r} already exists")
        source = self._resolve(ref)
        entry = _VersionEntry(name=new_name, version=1,
                              rdd_id=source.rdd_id, tenant=tenant,
                              fingerprint=source.fingerprint, handles=1)
        self._versions[new_name] = [entry]
        self._pins[source.rdd_id] = self._pins.get(source.rdd_id, 0) + 2
        self.branched_versions += 1
        bus = self.context.event_bus
        if bus.active:
            bus.post(DatasetBranched(
                time=self.context.now, tenant=tenant,
                source_name=source.name, source_version=source.version,
                new_name=new_name, rdd_id=source.rdd_id))
        return DatasetHandle(registry=self, name=new_name, version=1,
                             rdd_id=source.rdd_id, tenant=tenant,
                             rdd=self._by_fingerprint[source.fingerprint])

    def drop(self, tenant: str, ref: str) -> bool:
        """Retire a version.  Returns ``True`` if the backing RDD was
        unpersisted now, ``False`` if live pins deferred it."""
        entry = self._resolve(ref)
        entry.dropped = True
        unpersisted = self._unpin(self._by_fingerprint[entry.fingerprint])
        self.dropped_versions += 1
        bus = self.context.event_bus
        if bus.active:
            bus.post(DatasetDropped(
                time=self.context.now, tenant=tenant, name=entry.name,
                version=entry.version, rdd_id=entry.rdd_id,
                deferred=not unpersisted, unpersisted=unpersisted))
        return unpersisted

    # ---- internals ----------------------------------------------------------

    def _resolve(self, ref: str) -> _VersionEntry:
        name, version = parse_dataset_ref(ref)
        history = self._versions.get(name)
        if not history:
            raise KeyError(f"unknown dataset {name!r}")
        if version is None:
            for entry in reversed(history):
                if not entry.dropped:
                    return entry
            raise KeyError(f"dataset {name!r} has no live versions")
        for entry in history:
            if entry.version == version:
                if entry.dropped:
                    raise KeyError(f"dataset {name}@{version} was dropped")
                return entry
        raise KeyError(f"unknown dataset version {name}@{version}")

    def _release(self, handle: DatasetHandle) -> None:
        for entry in self._versions.get(handle.name, []):
            if entry.version == handle.version:
                entry.handles -= 1
                break
        self._unpin(handle.rdd)

    def _unpin(self, rdd: "RDD") -> bool:
        """Drop one pin; unpersist the RDD when the count drains to 0."""
        rdd_id = rdd.rdd_id
        remaining = self._pins.get(rdd_id, 0) - 1
        if remaining > 0:
            self._pins[rdd_id] = remaining
            return False
        self._pins.pop(rdd_id, None)
        # Last pin gone: retire the fingerprint alias and free the blocks.
        for fp, pinned in list(self._by_fingerprint.items()):
            if pinned is rdd:
                del self._by_fingerprint[fp]
        rdd.unpersist()
        return True
