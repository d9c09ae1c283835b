"""Taxi advertising pipeline (the motivating application of §III-C).

An advertising optimizer creates a dataset of taxi events every few
minutes and uses the collection of the past hour to: (1) filter
trajectories intersecting each campaign's target region, and (2) match
campaign messages to taxi monitors by demand.  Campaign intensity is
itself spatially skewed and time-varying (the Times-Square-on-weekend-
evening effect), which drives both partition-size skew (extendable
groups) and compute-demand skew (contention-aware replication).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from ..core.collection import DatasetCollection
from ..engine.partitioner import Partitioner
from ..engine.rdd import RDD
from ..workloads.taxi import TaxiTrace

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.context import StarkContext


@dataclass(frozen=True)
class Campaign:
    """An advertising campaign targeting a Z-key interval."""

    campaign_id: int
    zkey_lo: int
    zkey_hi: int
    message: str

    def covers(self, zkey: int) -> bool:
        return self.zkey_lo <= zkey <= self.zkey_hi


@dataclass
class AdQueryResult:
    """Outcome of one campaign-matching query."""

    campaign: Campaign
    steps: List[int]
    matched_events: int
    delay: float


class TaxiAdsApp:
    """Maintains a sliding collection of taxi timesteps and matches ads."""

    def __init__(
        self,
        context: "StarkContext",
        partitioner: Partitioner,
        trace: Optional[TaxiTrace] = None,
        namespace: Optional[str] = "taxi",
        window_steps: int = 12,
    ) -> None:
        self.context = context
        self.partitioner = partitioner
        self.trace = trace or TaxiTrace()
        self.collection = DatasetCollection(
            context, partitioner, namespace=namespace, window=window_steps,
        )

    @property
    def steps(self) -> Dict[int, RDD]:
        """Retained timestep -> its cached RDD."""
        return self.collection.steps

    # ---- data lifecycle -----------------------------------------------------------

    def ingest_step(self, step: int) -> RDD:
        """Load one timestep of events under the shared partitioner and
        slide the window (evicting the oldest step)."""
        generator = self.trace.step_generator(
            step, self.partitioner.num_partitions, self.partitioner
        )
        return self.collection.add(step, self.context.generated(
            generator, self.partitioner.num_partitions,
            partitioner=self.partitioner, read_cost="network",
            name=f"taxi[{step}]",
        ))

    # ---- queries ----------------------------------------------------------------------

    def match_campaign(self, campaign: Campaign,
                       steps: Optional[Sequence[int]] = None) -> AdQueryResult:
        """Count events inside the campaign's region across the window.

        Cogroups the window's timesteps (narrow under co-partitioning)
        and filters by Z-key interval — the "filter qualified trajectories
        using location information" stage of §III-C3.
        """
        chosen = sorted(steps) if steps is not None else sorted(self.steps)
        if not chosen:
            raise RuntimeError("no steps ingested")
        rdds = [self.steps[s] for s in chosen]
        lo, hi = campaign.zkey_lo, campaign.zkey_hi
        if len(rdds) == 1:
            region = rdds[0].filter(lambda kv: lo <= kv[0] <= hi, name="region")
            matched = region.count()
        else:
            grouped = rdds[0].cogroup(*rdds[1:], name="window-cogroup")
            region = grouped.filter(lambda kv: lo <= kv[0] <= hi, name="region")
            matched = sum(
                region.map(
                    lambda kv: sum(len(events) for events in kv[1]),
                    name="count-events",
                ).collect()
            )
        delay = self.context.metrics.last_job().makespan
        return AdQueryResult(campaign, chosen, matched, delay)

    def random_campaign(self, rng: random.Random,
                        hotspot_biased: bool = True) -> Campaign:
        """Generate a campaign; with ``hotspot_biased`` the region centers
        on a current hotspot (weekend-evening Times Square demand)."""
        if hotspot_biased and self.steps:
            regime = self.trace.regime_for_step(max(self.steps))
            hotspot = rng.choice(list(regime))
            side = self.trace.encoder.cells_per_side
            cx = min(side - 1, max(0, int(hotspot.x * side)))
            cy = min(side - 1, max(0, int(hotspot.y * side)))
            span = max(2, int(hotspot.sigma * side))
            x0, y0 = max(0, cx - span), max(0, cy - span)
            x1 = min(side - 1, cx + span)
            y1 = min(side - 1, cy + span)
            lo, hi = self.trace.encoder.region_key_range(x0, y0, x1, y1)
        else:
            lo, hi = self.trace.random_region_query(rng)
        return Campaign(
            campaign_id=rng.randint(0, 10_000),
            zkey_lo=lo,
            zkey_hi=hi,
            message=f"ad-{rng.randint(0, 999):03d}",
        )
