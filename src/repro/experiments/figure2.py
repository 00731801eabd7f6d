"""F2 — Figure 2: normalized cluster popularities, Zipf-like categories.

Paper setup (Section 4.4): |D| = 200,000 documents (Zipf theta = 0.8),
|N| = 20,000 nodes with capacities uniform in [1..5] contributing 1-20
categories each, |S| = 500 categories whose popularities are Zipf-like
(theta = 0.7) with random "spikes", |C| = 100 clusters.  MaxFair assigns
categories to clusters; the figure plots the resulting normalized cluster
popularity per cluster id and reports an achieved fairness of 0.9819.

Expected reproduction shape: a near-flat profile with fairness >= 0.95.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fairness import jain_fairness
from repro.core.maxfair import maxfair
from repro.core.popularity import build_category_stats, normalized_cluster_popularities
from repro.experiments.common import ALGO_SCALE
from repro.metrics.report import format_series
from repro.model.workload import zipf_category_scenario

__all__ = ["Figure2Result", "run", "format_result"]

PAPER_FAIRNESS = 0.981903


@dataclass(frozen=True, slots=True)
class Figure2Result:
    """The Figure 2 series: one normalized popularity per cluster."""

    scale: float
    normalized_popularity: tuple[float, ...]
    achieved_fairness: float
    paper_fairness: float = PAPER_FAIRNESS


def run(scale: float = ALGO_SCALE, seed: int = 7) -> Figure2Result:
    """Build the scenario, run MaxFair, and measure cluster popularities."""
    instance = zipf_category_scenario(scale=scale, seed=seed)
    stats = build_category_stats(instance)
    assignment = maxfair(instance, stats=stats)
    values = normalized_cluster_popularities(
        instance, assignment.category_to_cluster, stats=stats
    )
    return Figure2Result(
        scale=scale,
        normalized_popularity=tuple(float(v) for v in values),
        achieved_fairness=float(jain_fairness(values)),
    )


def format_result(result: Figure2Result) -> str:
    """Print the Figure 2 series (cluster id vs normalized popularity)."""
    points = [
        (cluster_id, f"{value:.8f}")
        for cluster_id, value in enumerate(result.normalized_popularity)
    ]
    header = (
        f"F2 / Figure 2 — achieved fairness = {result.achieved_fairness:.6f} "
        f"(paper: {result.paper_fairness:.6f}), scale = {result.scale}"
    )
    return format_series("cluster id", "normalized popularity", points, title=header)
