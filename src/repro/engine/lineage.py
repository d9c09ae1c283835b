"""Lineage-graph utilities: traversal, fingerprints and the recovery cut.

The lineage graph (RDDs + dependencies) is the paper's central data
structure: stages are its shuffle-cut components, recovery re-executes
its paths, and the CheckpointOptimizer runs min-cut over it.  This module
provides the read-only walks the schedulers, the cache and the service
share.
"""

from __future__ import annotations

import hashlib
from operator import methodcaller
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
    TYPE_CHECKING,
)

from .dependency import Dependency, ShuffleDependency

if TYPE_CHECKING:  # pragma: no cover
    from .rdd import RDD

Node = TypeVar("Node")


def post_order(root: Node,
               parents: Callable[[Node], Iterable[Node]]) -> List[Node]:
    """Every node reachable from ``root`` through ``parents``, once each,
    parents before children: depth-first post-order, parents visited in
    the order given.

    An explicit stack rather than a recursive closure: a nested function
    that calls itself is a reference cycle, so everything it reached
    would stay alive until the cyclic collector ran — and the engine
    releases shuffle outputs by reference counting.
    """
    seen = {root}
    order: List[Node] = []
    stack: List[Tuple[Node, Iterator[Node]]] = [(root, iter(parents(root)))]
    while stack:
        node, pending = stack[-1]
        for parent in pending:
            if parent not in seen:
                seen.add(parent)
                stack.append((parent, iter(parents(parent))))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def ancestors(rdd: "RDD", include_self: bool = False) -> List["RDD"]:
    """All transitive parents of ``rdd``, deduplicated, parents first in
    a valid topological order."""
    order = post_order(rdd, methodcaller("parents"))
    return order if include_self else order[:-1]


def shuffle_boundaries(rdd: "RDD") -> List[ShuffleDependency]:
    """Every shuffle dependency in the lineage of ``rdd``."""
    out: List[ShuffleDependency] = []
    for node in ancestors(rdd, include_self=True):
        out.extend(node.shuffle_dependencies())
    return out


def _describe_callable(fn: object) -> str:
    """A structural description of a transformation function.

    Two functions compiled from the same source describe identically
    (qualname + bytecode + constants), so pipelines built independently
    by different tenants from the same code collide — the property the
    dataset registry's fingerprint dedup relies on.  Closures over
    differing values are distinguished via the cell contents' ``repr``.
    """
    code = getattr(fn, "__code__", None)
    if code is None:
        return repr(fn)
    parts = [
        getattr(fn, "__qualname__", ""),
        code.co_code.hex(),
        repr(code.co_consts),
        repr(code.co_names),
    ]
    closure = getattr(fn, "__closure__", None)
    if closure:
        parts.append(repr(tuple(cell.cell_contents for cell in closure)))
    return "|".join(parts)


def _node_descriptor(node: "RDD", dep_labels: Dict[int, str]) -> str:
    """The structural description of one lineage node.

    ``dep_labels`` maps a parent's ``rdd_id`` to the label encoding its
    identity in the descriptor: :func:`lineage_fingerprint` uses
    lineage-local indices (whole-graph identity), while
    :func:`prefix_fingerprints` uses the parent's own prefix hash
    (Merkle-style, so equal descriptors mean equal *subgraphs*).
    """
    desc = [
        type(node).__name__,
        node.name,
        str(node.num_partitions),
        repr(node.partitioner),
        node.namespace or "",
    ]
    for attr in ("fn", "predicate", "generator", "line_generator"):
        value = getattr(node, attr, None)
        if value is not None:
            desc.append(f"{attr}={_describe_callable(value)}")
    # Columnar/SQL nodes carry a structural description of their
    # compiled expressions (kernels are closures over expression
    # trees, which bytecode alone cannot distinguish).
    extra = getattr(node, "lineage_extra", None)
    if extra is not None:
        desc.append(f"extra={extra}")
    slices = getattr(node, "_slices", None)
    if slices is not None:  # ParallelCollectionRDD: driver-held data
        desc.append(f"data={repr(slices)}")
    for dep in node.dependencies:
        kind = type(dep).__name__
        agg = getattr(dep, "aggregator", None)
        extra = f":{_describe_callable(agg)}" if agg is not None else ""
        desc.append(f"dep={kind}:{dep_labels[dep.rdd.rdd_id]}{extra}")
    return "\x1e".join(desc) + "\x1f"


def lineage_fingerprint(rdd: "RDD") -> str:
    """Structural hash of ``rdd``'s lineage (sha256 hex digest).

    Two RDDs fingerprint identically iff their lineage graphs are
    structurally equal: same node types, names, partition counts,
    partitioners, namespaces, transformation functions (by code, see
    :func:`_describe_callable`), and same wiring.  This is the dedup key
    of the dataset registry (``repro.service``): when tenant B registers
    a computation whose fingerprint matches one tenant A already
    registered, B's handle aliases A's RDD and is served from A's cached
    blocks instead of materializing a second copy.

    ``rdd_id`` is deliberately excluded — ids are assignment order, not
    structure — and node identity is encoded through a lineage-local
    numbering so diamond sharing still distinguishes from duplication.
    """
    nodes = ancestors(rdd, include_self=True)
    local = {node.rdd_id: str(i) for i, node in enumerate(nodes)}
    hasher = hashlib.sha256()
    for node in nodes:
        hasher.update(_node_descriptor(node, local).encode())
    return hasher.hexdigest()


def prefix_fingerprints(rdd: "RDD") -> Dict[int, str]:
    """Per-node *prefix* hashes for every node in ``rdd``'s lineage.

    Each node hashes its own descriptor with dependency labels replaced
    by the parents' prefix hashes (Merkle-style), so a node's hash
    covers exactly the lineage subgraph rooted at it.  Two nodes — in
    the *same or different* jobs — get equal prefix hashes iff the
    computations beneath them are structurally identical, which is what
    lets the cache broker serve tenant B's scan from tenant A's cached
    subgraph even when only a DAG prefix matches
    (:mod:`repro.cache.broker`).

    Unlike :func:`lineage_fingerprint`'s lineage-local numbering, the
    Merkle labels cannot distinguish a diamond-shared parent from two
    structurally equal duplicate parents — but for prefix *matching*
    that conflation is exactly right: equal subgraphs compute equal
    data either way.

    Returns ``{rdd_id: hex digest}`` for every ancestor including
    ``rdd`` itself.
    """
    hashes: Dict[int, str] = {}
    for node in ancestors(rdd, include_self=True):  # parents-first
        descriptor = _node_descriptor(node, hashes)
        hashes[node.rdd_id] = hashlib.sha256(descriptor.encode()).hexdigest()
    return hashes


def recovery_cut(rdd: "RDD") -> List["RDD"]:
    """The RDDs recovery would actually read for ``rdd``: the frontier of
    barriers (checkpoints, shuffle outputs, sources) its recomputation
    stops at, given current cluster state."""
    context = rdd.context
    cut: List["RDD"] = []
    seen: Set[int] = set()
    # Pre-order over narrow edges with an explicit stack of dependency
    # iterators (see :func:`post_order` for why not a recursive closure).
    stack: List[Iterator[Dependency]] = []
    node: Optional["RDD"] = rdd
    while True:
        if node is not None and node.rdd_id not in seen:
            seen.add(node.rdd_id)
            if (context.checkpoint_store.has_checkpoint(node.rdd_id)
                    or not node.dependencies):
                cut.append(node)
            else:
                stack.append(iter(node.dependencies))
        node = None
        if not stack:
            return cut
        dep = next(stack[-1], None)
        if dep is None:
            stack.pop()
        elif isinstance(dep, ShuffleDependency):
            cut.append(dep.rdd)
        else:
            node = dep.rdd
