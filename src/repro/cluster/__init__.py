"""Simulated cluster substrate: workers, kernel, cost model, queueing."""

from .cluster import Cluster
from .cost_model import CostModel, RecordSizer
from .events import (
    EventHandle,
    EventQueue,
    SimClock,
    SimKernel,
    TIME_EPS,
)
from .worker import Worker

__all__ = [
    "Cluster",
    "CostModel",
    "RecordSizer",
    "EventHandle",
    "EventQueue",
    "SimClock",
    "SimKernel",
    "TIME_EPS",
    "Worker",
]
