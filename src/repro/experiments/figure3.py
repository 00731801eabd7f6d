"""F3 — Figure 3: normalized cluster popularities, uniform categories.

The second Section 4.4 scenario: documents are assigned to categories
uniformly at random, producing a near-uniform category-popularity
distribution.  Same system scale as Figure 2.  The paper reports an
achieved fairness of 0.9750.

Expected reproduction shape: near-flat profile, fairness >= 0.95, slightly
different (typically marginally lower at paper scale) than the skewed
scenario because uniform category popularities leave fewer small pieces to
even out residual imbalance with.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fairness import jain_fairness
from repro.core.maxfair import maxfair
from repro.core.popularity import build_category_stats, normalized_cluster_popularities
from repro.experiments.common import ALGO_SCALE
from repro.metrics.report import format_series
from repro.model.workload import uniform_category_scenario

__all__ = ["Figure3Result", "run", "format_result"]

PAPER_FAIRNESS = 0.974958


@dataclass(frozen=True, slots=True)
class Figure3Result:
    """The Figure 3 series: one normalized popularity per cluster."""

    scale: float
    normalized_popularity: tuple[float, ...]
    achieved_fairness: float
    paper_fairness: float = PAPER_FAIRNESS


def run(scale: float = ALGO_SCALE, seed: int = 7) -> Figure3Result:
    """Build the uniform scenario, run MaxFair, measure cluster popularities."""
    instance = uniform_category_scenario(scale=scale, seed=seed)
    stats = build_category_stats(instance)
    assignment = maxfair(instance, stats=stats)
    values = normalized_cluster_popularities(
        instance, assignment.category_to_cluster, stats=stats
    )
    return Figure3Result(
        scale=scale,
        normalized_popularity=tuple(float(v) for v in values),
        achieved_fairness=float(jain_fairness(values)),
    )


def format_result(result: Figure3Result) -> str:
    """Print the Figure 3 series (cluster id vs normalized popularity)."""
    points = [
        (cluster_id, f"{value:.8f}")
        for cluster_id, value in enumerate(result.normalized_popularity)
    ]
    header = (
        f"F3 / Figure 3 — achieved fairness = {result.achieved_fairness:.6f} "
        f"(paper: {result.paper_fairness:.6f}), scale = {result.scale}"
    )
    return format_series("cluster id", "normalized popularity", points, title=header)
