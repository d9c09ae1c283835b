"""CheckpointOptimizer: bounded recovery delay at minimum cost (§III-D).

Each RDD carries two measured properties: the recovery **delay** ``d``
(its transformation time, estimated as the maximum across tasks) and the
checkpoint **cost** ``c`` (its materialized size).  An *uncheckpointed
path* is a lineage path containing no checkpointed RDD, no ShuffledRDD
(map outputs persist, truncating recovery), and no source.  When any
uncheckpointed path's total delay exceeds the user bound ``r``, the path
is *violating* and the optimizer must break it.

The optimizer builds the classic node-split flow network: each RDD ``v``
becomes ``v_in -> v_out`` with capacity ``c(v)``; lineage edges get
infinite capacity; a virtual source feeds the roots of the violating
sub-DAG and the triggering RDDs connect to a virtual sink.  A minimum
s-t cut then selects the cheapest RDD set whose checkpointing breaks
every violating path.

With relaxation factor ``f > 1`` the cut tracing stops at nearly
saturated edges close to the sink (``residual <= f * flow``), spending up
to ``f``× the optimal cost to leave shorter uncheckpointed tails — the
Stark-3 configuration that wins over exact optimality (Stark-1) once the
lineage grows (Fig 18).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, TYPE_CHECKING

from .flow import INF, FlowNetwork

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.context import StarkContext
    from ..engine.rdd import RDD


@dataclass
class LineageNode:
    """One RDD in the optimizer's view of the lineage DAG."""

    rdd_id: int
    delay: float
    cost: float
    parents: List[int] = field(default_factory=list)
    barrier: bool = False  # checkpointed / shuffled / source: recovery stops here


@dataclass
class CheckpointDecision:
    """Outcome of one optimizer invocation."""

    triggered: bool
    violating_paths: int
    chosen_rdd_ids: List[int]
    total_cost: float
    #: Longest uncheckpointed path delay after applying the decision.
    residual_path_delay: float


class CheckpointOptimizer:
    """Selects the minimum-cost RDD set to checkpoint (§III-D2)."""

    def __init__(
        self,
        context: "StarkContext",
        recovery_bound: float,
        relax_factor: float = 1.0,
    ) -> None:
        self.context = context
        #: The user's recovery delay bound ``r`` (simulated seconds).
        self.recovery_bound = recovery_bound
        #: Cut-relaxation factor ``f`` (§III-D2); 1.0 is exact optimality.
        self.relax_factor = relax_factor
        if self.recovery_bound <= 0:
            raise ValueError(f"recovery bound must be positive: {self.recovery_bound}")
        if self.relax_factor < 1.0:
            raise ValueError(f"relax factor must be >= 1: {self.relax_factor}")

    # ---- lineage extraction ------------------------------------------------------

    def build_lineage(self, roots: Sequence["RDD"]) -> Dict[int, LineageNode]:
        """Walk lineage upwards from ``roots``; barriers terminate walks."""
        from ..engine.dependency import ShuffleDependency

        nodes: Dict[int, LineageNode] = {}
        stack = list(roots)
        while stack:
            rdd = stack.pop()
            if rdd.rdd_id in nodes:
                continue
            stats = self.context.rdd_stats(rdd.rdd_id)
            checkpointed = self.context.checkpoint_store.has_checkpoint(rdd.rdd_id)
            has_shuffle_in = any(
                isinstance(d, ShuffleDependency) for d in rdd.dependencies
            )
            is_source = not rdd.dependencies
            node = LineageNode(
                rdd_id=rdd.rdd_id,
                delay=stats.max_partition_delay,
                cost=max(stats.size_bytes, 1.0),
                barrier=checkpointed or has_shuffle_in or is_source,
            )
            nodes[rdd.rdd_id] = node
            if checkpointed:
                # Recovery reads the checkpoint: lineage above is invisible.
                continue
            for dep in rdd.dependencies:
                if isinstance(dep, ShuffleDependency):
                    # Map outputs persist; recovery stops at the shuffle.
                    continue
                node.parents.append(dep.rdd.rdd_id)
                stack.append(dep.rdd)
        return nodes

    # ---- violating paths ------------------------------------------------------------

    def longest_uncheckpointed_delay(
        self, nodes: Dict[int, LineageNode], target: int
    ) -> float:
        """Longest-path delay ending at ``target``, counting only
        uncheckpointed stretches (barriers contribute their own delay but
        stop the walk — recovering them costs one read, not a re-chain)."""
        memo: Dict[int, float] = {}

        def longest(rdd_id: int) -> float:
            if rdd_id in memo:
                return memo[rdd_id]
            node = nodes[rdd_id]
            if node.barrier:
                memo[rdd_id] = node.delay
                return node.delay
            best_parent = max(
                (longest(p) for p in node.parents if p in nodes), default=0.0
            )
            memo[rdd_id] = node.delay + best_parent
            return memo[rdd_id]

        return longest(target)

    def find_violating_targets(
        self, nodes: Dict[int, LineageNode], targets: Sequence[int]
    ) -> List[int]:
        return [
            t for t in targets
            if self.longest_uncheckpointed_delay(nodes, t) > self.recovery_bound
        ]

    def count_violating_paths(
        self, nodes: Dict[int, LineageNode], target: int
    ) -> int:
        """Number of root-to-target paths exceeding the bound (diagnostics)."""

        def walk(rdd_id: int, acc: float) -> int:
            node = nodes[rdd_id]
            total = acc + node.delay
            if node.barrier or not node.parents:
                return 1 if total > self.recovery_bound else 0
            return sum(walk(p, total) for p in node.parents if p in nodes)

        return walk(target, 0.0)

    # ---- the optimization ---------------------------------------------------------------

    def optimize(self, triggering: Sequence["RDD"],
                 max_rounds: int = 16) -> CheckpointDecision:
        """Break every violating path ending at ``triggering`` by
        checkpointing minimum-cost cut sets; repeats until no violating
        path remains.

        Iteration is needed because an exact min cut may land far from
        the leaves, leaving an uncheckpointed suffix that itself violates
        — the paper notes such a cut "would inevitably trigger another
        checkpoint action soon", and the relaxation factor ``f`` exists
        precisely to reduce these follow-up rounds.

        Returns the combined decision (``triggered=False`` if no path
        violated in the first place).
        """
        target_ids = [r.rdd_id for r in triggering]
        nodes = self.build_lineage(triggering)
        violating = self.find_violating_targets(nodes, target_ids)
        if not violating:
            return CheckpointDecision(False, 0, [], 0.0, max(
                (self.longest_uncheckpointed_delay(nodes, t) for t in target_ids),
                default=0.0,
            ))
        num_violating = sum(self.count_violating_paths(nodes, t) for t in violating)

        all_chosen: List[int] = []
        total_cost = 0.0
        for _ in range(max_rounds):
            chosen = self.select_checkpoint_set(nodes, violating)
            if not chosen:
                break
            for rdd_id in chosen:
                total_cost += self.context.checkpoint_rdd(
                    self.context.get_rdd(rdd_id)
                )
            all_chosen.extend(chosen)
            nodes = self.build_lineage(triggering)
            violating = self.find_violating_targets(nodes, target_ids)
            if not violating:
                break

        residual = max(
            self.longest_uncheckpointed_delay(nodes, t) for t in target_ids
        )
        return CheckpointDecision(True, num_violating, all_chosen, total_cost,
                                  residual)

    def select_checkpoint_set(
        self, nodes: Dict[int, LineageNode], violating_targets: Sequence[int]
    ) -> List[int]:
        """Min-cut selection of RDDs to checkpoint (no side effects)."""
        relevant = self._nodes_on_violating_paths(nodes, violating_targets)
        if not relevant:
            return []

        network = FlowNetwork()
        source, sink = -1, -2
        # Node split: in = 2*id, out = 2*id + 1.  The node-split edge's
        # capacity is the RDD's checkpoint cost — except barriers (already
        # persisted; cutting them is meaningless) and the triggering RDDs
        # (the paper cuts *between* roots and the trigger), which are
        # uncuttable and get infinite capacity.
        for rdd_id in relevant:
            node = nodes[rdd_id]
            capacity = node.cost
            if rdd_id in violating_targets or node.barrier:
                capacity = INF
            network.add_edge(2 * rdd_id, 2 * rdd_id + 1, capacity)
        for rdd_id in relevant:
            node = nodes[rdd_id]
            if node.barrier:
                network.add_edge(source, 2 * rdd_id, INF)
            for parent in node.parents:
                if parent in relevant:
                    network.add_edge(2 * parent + 1, 2 * rdd_id, INF)
        for target in violating_targets:
            network.add_edge(2 * target + 1, sink, INF)

        network.max_flow(source, sink)
        if self.relax_factor > 1.0:
            cut_edges = network.relaxed_cut_edges(sink, self.relax_factor)
        else:
            cut_edges = network.min_cut_edges(source)
        chosen = sorted({e.src // 2 for e in cut_edges if e.capacity < INF})
        return [c for c in chosen if not nodes[c].barrier or
                self._barrier_needs_checkpoint(nodes[c])]

    def _barrier_needs_checkpoint(self, node: LineageNode) -> bool:
        """A barrier node never needs checkpointing (already persisted)."""
        return False

    def _nodes_on_violating_paths(
        self, nodes: Dict[int, LineageNode], targets: Sequence[int]
    ) -> Set[int]:
        """Nodes lying on at least one *violating* path (Fig 10's "RDDs on
        Violating Paths").

        A node is kept iff the longest root-to-node delay plus the longest
        node-to-target delay (counting the node once) exceeds the bound.
        Restricting the flow network to these nodes is what the paper
        draws: short side-branches (e.g. a fast filter feeding the same
        join) must not be cut — only paths that actually break the
        recovery bound need breaking.
        """
        ancestors: Set[int] = set()
        stack = [t for t in targets if t in nodes]
        while stack:
            rdd_id = stack.pop()
            if rdd_id in ancestors:
                continue
            ancestors.add(rdd_id)
            node = nodes[rdd_id]
            if node.barrier:
                continue
            for parent in node.parents:
                if parent in nodes:
                    stack.append(parent)

        # Longest delay from any root/barrier down to each node.
        down: Dict[int, float] = {}

        def down_len(rdd_id: int) -> float:
            if rdd_id in down:
                return down[rdd_id]
            node = nodes[rdd_id]
            if node.barrier:
                down[rdd_id] = node.delay
                return node.delay
            best = max((down_len(p) for p in node.parents
                        if p in ancestors), default=0.0)
            down[rdd_id] = node.delay + best
            return down[rdd_id]

        # Longest delay from each node up to any target (children walk).
        children: Dict[int, List[int]] = {a: [] for a in ancestors}
        for rdd_id in ancestors:
            node = nodes[rdd_id]
            if node.barrier:
                continue
            for parent in node.parents:
                if parent in ancestors:
                    children[parent].append(rdd_id)
        target_set = set(targets)
        up: Dict[int, float] = {}

        def up_len(rdd_id: int) -> float:
            if rdd_id in up:
                return up[rdd_id]
            node = nodes[rdd_id]
            best = max((up_len(c) for c in children[rdd_id]), default=None)
            if best is None:
                # Dead end: only counts if it *is* a target.
                up[rdd_id] = node.delay if rdd_id in target_set else float("-inf")
                return up[rdd_id]
            if rdd_id in target_set:
                best = max(best, 0.0)
            up[rdd_id] = node.delay + best
            return up[rdd_id]

        relevant: Set[int] = set()
        for rdd_id in ancestors:
            total = down_len(rdd_id) + up_len(rdd_id) - nodes[rdd_id].delay
            if total > self.recovery_bound:
                relevant.add(rdd_id)
        return relevant
