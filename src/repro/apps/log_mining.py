"""Log mining over dataset collections (§IV-B's workload).

Typical IT-diagnosis jobs on a collection of hourly log files: load each
hour as an RDD under a shared partitioner, cache it, and run interactive
queries that cogroup a range of hours and count the lines matching a
keyword.  This is the workload of Figs 11/12 and (under skew) 13-15.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from ..core.collection import DatasetCollection
from ..engine.partitioner import HashPartitioner, Partitioner
from ..engine.rdd import RDD
from ..workloads.wikipedia import WikipediaTrace

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.context import StarkContext


@dataclass
class LogMiningResult:
    """Outcome of one keyword query."""

    keyword: str
    hours: List[int]
    matches: int
    delay: float


class LogMiningApp:
    """Loads hourly logs and answers keyword queries across hours.

    ``mode`` selects the paper's configurations:

    * ``"spark-r"`` — fresh RangePartitioner per RDD (always shuffles);
    * ``"spark-h"`` — shared HashPartitioner, no co-locality management;
    * ``"stark"``  — shared partitioner registered under a namespace
      (co-locality; pass an ExtendablePartitioner for Stark-E).
    """

    def __init__(
        self,
        context: "StarkContext",
        trace: Optional[WikipediaTrace] = None,
        num_partitions: int = 8,
        mode: str = "stark",
        partitioner: Optional[Partitioner] = None,
        namespace: str = "wiki-logs",
    ) -> None:
        if mode not in ("spark-r", "spark-h", "stark"):
            raise ValueError(f"unknown mode {mode!r}")
        self.context = context
        self.trace = trace or WikipediaTrace()
        self.num_partitions = num_partitions
        self.mode = mode
        self.partitioner = partitioner or HashPartitioner(num_partitions)
        #: Spark-R and Spark-H route each hour themselves, so only Stark's
        #: collection carries the namespace.
        self.collection = DatasetCollection(
            context, self.partitioner,
            namespace=namespace if mode == "stark" else None,
        )

    @property
    def hours(self) -> Dict[int, RDD]:
        """Loaded hour -> its cached RDD."""
        return self.collection.steps

    # ---- loading / evicting hours ---------------------------------------------------

    def load_hour(self, hour: int) -> RDD:
        """Load one hour-file: text -> (url, line) pairs -> partitioned,
        cached, materialized."""
        sc = self.context
        lines = sc.text_file(
            self.trace.hour_generator(hour, self.num_partitions),
            self.num_partitions,
            name=f"wiki-hour-{hour}",
        )
        pairs = lines.map(_line_to_pair, name=f"kv-hour-{hour}")
        if self.mode == "spark-r":
            from ..engine.partitioner import RangePartitioner

            sample = [
                url for url, _ in _sample_pairs(self.trace, hour,
                                                self.num_partitions)
            ]
            partitioner: Partitioner = RangePartitioner(
                self.num_partitions, sample
            )
            pairs = pairs.partition_by(partitioner)
        elif self.mode == "spark-h":
            pairs = pairs.partition_by(self.partitioner)
        return self.collection.add(hour, pairs, name=f"hour-{hour}")

    def load_hours(self, hours: Sequence[int]) -> List[RDD]:
        return [self.load_hour(h) for h in hours]

    def evict_hour(self, hour: int) -> None:
        self.collection.drop(hour)

    # ---- queries ----------------------------------------------------------------------

    def query(self, keyword: str, hours: Sequence[int]) -> LogMiningResult:
        """Cogroup the given hours and count lines containing ``keyword``."""
        hours = list(hours)
        missing = [h for h in hours if h not in self.hours]
        if missing:
            raise KeyError(f"hours not loaded: {missing}")
        rdds = [self.hours[h] for h in hours]
        if len(rdds) == 1:
            target = rdds[0].filter(
                lambda kv: keyword in kv[1], name="grep"
            )
            matches = target.count()
        else:
            grouped = rdds[0].cogroup(*rdds[1:], name=f"cogroup-{len(rdds)}")
            matches_per_key = grouped.map(
                lambda kv: sum(
                    1 for lines in kv[1] for line in lines if keyword in line
                ),
                name="grep",
            )
            matches = sum(matches_per_key.collect())
        delay = self.context.metrics.last_job().makespan
        return LogMiningResult(keyword, hours, matches, delay)

    def random_query(self, rng: random.Random, window: int = 3) -> LogMiningResult:
        loaded = sorted(self.hours)
        if not loaded:
            raise RuntimeError("no hours loaded")
        span = min(window, len(loaded))
        start = rng.randint(0, len(loaded) - span)
        keyword = f"Article_{rng.randint(0, 200):05d}"
        return self.query(keyword, loaded[start:start + span])


def _line_to_pair(line: str) -> tuple:
    """``<ts> <url> <status>`` -> (url, line)."""
    parts = line.split(" ", 2)
    return (parts[1], line)


def _sample_pairs(trace: WikipediaTrace, hour: int, num_partitions: int,
                  limit: int = 500) -> List[tuple]:
    lines = trace.lines_for_hour_partition(hour, 0, num_partitions)[:limit]
    return [_line_to_pair(line) for line in lines]
