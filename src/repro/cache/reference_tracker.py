"""Driver-side reference counting over the RDD lineage DAG.

The tracker is what makes the ``lrc`` and ``cost`` scores of
:class:`~repro.cache.policy.ScoredPolicy` lineage-aware: at job
submission it walks the job's stage DAG and counts, per *cached* RDD,
how many not-yet-executed consumers will read it; as stages complete the
counts drain.  Eviction policies consult :meth:`ref_count` — a block
whose RDD no longer has pending or declared readers is dead weight.

Two kinds of references:

* **pending** — within one running job: every dependency edge whose
  parent is cached contributes one reference, released when the stage
  containing the consuming child completes.  (A skipped stage releases
  immediately — its map outputs persist, so it reads no caches.)
* **declared** — across jobs: the driver announces future use with
  :meth:`expect` (``tracker.expect(rdd_id, uses=3)`` = "three more jobs
  will read this RDD").  Each completed job that referenced the RDD
  consumes one declared use; a job that aborts consumes none — the
  paper's dynamic-collection setting, where the driver knows the window
  of datasets the next queries span.

A drained RDD is never dropped here: its blocks stay resident and merely
rank as dead weight, so LRC and cost eviction take them first.
Applications that never call :meth:`expect` keep exact Spark semantics.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.rdd import RDD
    from ..engine.stage import Stage

BlockId = Tuple[int, int]


class ReferenceTracker:
    """Counts remaining readers of every cached RDD."""

    def __init__(self, fall_fn: Optional[Callable[[int], None]] = None) -> None:
        #: ``fn(rdd_id)`` told whenever an RDD's :meth:`ref_count` falls.
        self._fall_fn = fall_fn or (lambda rdd_id: None)
        #: rdd_id -> references held by stages of currently-running jobs.
        self._pending: Dict[int, int] = {}
        #: rdd_id -> declared remaining future-job uses.
        self._declared: Dict[int, int] = {}
        #: (job_id, stage_id) -> rdd_ids to release on stage completion.
        self._releases: Dict[Tuple[int, int], List[int]] = {}
        #: job_id -> cached rdd_ids this job references (declared drain).
        self._touched: Dict[int, Set[int]] = {}

    # ---- queries -----------------------------------------------------------

    def ref_count(self, rdd_id: int) -> int:
        return self._pending.get(rdd_id, 0) + self._declared.get(rdd_id, 0)

    def block_ref_count(self, block_id: BlockId) -> int:
        return self.ref_count(block_id[0])

    # ---- cross-job declarations --------------------------------------------

    def expect(self, rdd_id: int, uses: int = 1) -> None:
        """Declare that ``uses`` more jobs will reference ``rdd_id``."""
        if uses <= 0:
            raise ValueError(f"declared uses must be positive: {uses}")
        self._declared[rdd_id] = self._declared.get(rdd_id, 0) + uses

    def declared(self, rdd_id: int) -> int:
        return self._declared.get(rdd_id, 0)

    # ---- job lifecycle (driven by the DAGScheduler) ------------------------

    def on_job_submit(self, job_id: int, final_rdd: "RDD",
                      stages: Iterable["Stage"]) -> None:
        """Register the references job ``job_id`` will hold.

        A stage references every *cached* RDD in its narrow closure: its
        tasks evaluate the closure root (the final RDD for the result
        stage, the map-side RDD for a shuffle stage) and evaluation
        either reads each cached node from the block store or recomputes
        it — both are uses that keep the block warm until the stage
        completes.  Each reference is released when its stage finishes.
        """
        touched = self._touched.setdefault(job_id, set())
        for stage in stages:
            released: List[int] = self._releases.setdefault(
                (job_id, stage.stage_id), []
            )
            for node in self._narrow_closure(stage.rdd):
                if node.cached:
                    self._pending[node.rdd_id] = (
                        self._pending.get(node.rdd_id, 0) + 1
                    )
                    released.append(node.rdd_id)
                    touched.add(node.rdd_id)

    def on_stage_complete(self, job_id: int, stage_id: int) -> None:
        for rdd_id in self._releases.pop((job_id, stage_id), ()):
            self._release_pending(rdd_id)

    def on_job_complete(self, job_id: int) -> None:
        """Release any leftover pending refs and drain declared uses."""
        self._release_job(job_id)
        for rdd_id in sorted(self._touched.pop(job_id, ())):
            remaining = self._declared.get(rdd_id)
            if remaining is None:
                continue
            remaining -= 1
            self._fall_fn(rdd_id)
            if remaining > 0:
                self._declared[rdd_id] = remaining
            else:
                self._declared.pop(rdd_id, None)

    def on_job_abort(self, job_id: int) -> None:
        """Release an aborted job's pending refs; an aborted job read
        nothing to completion, so its declared uses stay owed."""
        self._release_job(job_id)
        self._touched.pop(job_id, None)

    # ---- internals ---------------------------------------------------------

    def _release_job(self, job_id: int) -> None:
        leftovers = [key for key in self._releases if key[0] == job_id]
        for key in leftovers:
            for rdd_id in self._releases.pop(key):
                self._release_pending(rdd_id)

    def _release_pending(self, rdd_id: int) -> None:
        count = self._pending.get(rdd_id, 0) - 1
        if count > 0:
            self._pending[rdd_id] = count
        else:
            self._pending.pop(rdd_id, None)
        self._fall_fn(rdd_id)

    @staticmethod
    def _narrow_closure(rdd: "RDD") -> List["RDD"]:
        """The RDDs a stage executes: ``rdd`` plus everything reachable
        through narrow dependencies (shuffle parents belong to their own
        map stages)."""
        seen: Set[int] = set()
        order: List["RDD"] = []
        stack = [rdd]
        while stack:
            node = stack.pop()
            if node.rdd_id in seen:
                continue
            seen.add(node.rdd_id)
            order.append(node)
            for dep in node.narrow_dependencies():
                stack.append(dep.rdd)
        return order
