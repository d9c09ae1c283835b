"""Stark's contributions: co-locality, elasticity, optimal checkpointing."""

from .checkpoint_optimizer import (
    CheckpointDecision,
    CheckpointOptimizer,
    LineageNode,
)
from .collection import DatasetCollection
from .edge_checkpoint import EdgeCheckpointer
from .extendable_partitioner import ExtendablePartitioner
from .flow import INF, FlowEdge, FlowNetwork
from .group_manager import GroupManager, NamespaceGroups
from .group_tree import GroupNode, GroupTree, GroupTreeError
from .locality_manager import LocalityManager, Namespace, NamespaceError
from .mcf_scheduler import MinimumContentionFirstPolicy
from .replication import ReplicationEvent, ReplicationManager

__all__ = [
    "CheckpointDecision",
    "CheckpointOptimizer",
    "DatasetCollection",
    "EdgeCheckpointer",
    "ExtendablePartitioner",
    "FlowEdge",
    "FlowNetwork",
    "GroupManager",
    "GroupNode",
    "GroupTree",
    "GroupTreeError",
    "INF",
    "LineageNode",
    "LocalityManager",
    "MinimumContentionFirstPolicy",
    "Namespace",
    "NamespaceError",
    "NamespaceGroups",
    "ReplicationEvent",
    "ReplicationManager",
]
