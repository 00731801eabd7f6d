"""T1 — Section 4.4 scaling claims, plus MaxFair ablations.

The paper's quantitative claims beyond Figures 2/3:

* "for all the tested cases the fairness achieved by MaxFair is greater
  than 95%";
* "as the number of categories and the number of clusters increases, the
  achievable fairness increases";
* "even for small values of these parameters (50 clusters, 200
  categories), the achievable fairness was above 90%".

This experiment sweeps the (|C|, |S|) grid the claims quantify over and
additionally ablates the design choices DESIGN.md calls out:

* category consideration order (descending popularity vs arbitrary vs
  ascending);
* MaxFair vs the naive baselines (random / round-robin / hash / LPT).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.baselines import assign_with_strategy
from repro.core.maxfair import achieved_fairness, maxfair
from repro.core.popularity import build_category_stats
from repro.experiments.common import ALGO_SCALE
from repro.metrics.report import format_table
from repro.model.system import SystemConfig, build_system

__all__ = ["ScalingCell", "ScalingResult", "run", "format_result"]

CLUSTER_COUNTS = (50, 100, 200)
CATEGORY_COUNTS = (200, 500, 1000)
ORDERS = ("popularity_desc", "arbitrary", "popularity_asc")
STRATEGIES = ("maxfair", "lpt", "random", "round_robin", "hash")


@dataclass(frozen=True, slots=True)
class ScalingCell:
    n_clusters: int
    n_categories: int
    fairness: float


@dataclass(frozen=True, slots=True)
class ScalingResult:
    scale: float
    grid: tuple[ScalingCell, ...]
    order_ablation: tuple[tuple[str, float], ...]
    strategy_ablation: tuple[tuple[str, float], ...]

    @property
    def min_fairness(self) -> float:
        return min(cell.fairness for cell in self.grid)


def _base_config(scale: float, seed: int) -> SystemConfig:
    return SystemConfig(seed=seed).scaled(scale)


def run(scale: float = ALGO_SCALE, seed: int = 7) -> ScalingResult:
    """Sweep the grid and run the ablations."""
    base = _base_config(scale, seed)

    grid = []
    for n_clusters in CLUSTER_COUNTS:
        for n_categories in CATEGORY_COUNTS:
            config = replace(
                base,
                n_clusters=max(2, round(n_clusters * scale)),
                n_categories=max(4, round(n_categories * scale)),
            )
            instance = build_system(config)
            stats = build_category_stats(instance)
            assignment = maxfair(instance, stats=stats)
            grid.append(
                ScalingCell(
                    n_clusters=n_clusters,
                    n_categories=n_categories,
                    fairness=achieved_fairness(instance, assignment, stats=stats),
                )
            )

    # Ablations run on the default-size configuration.
    instance = build_system(base)
    stats = build_category_stats(instance)
    order_ablation = tuple(
        (
            order,
            achieved_fairness(
                instance, maxfair(instance, stats=stats, order=order), stats=stats
            ),
        )
        for order in ORDERS
    )
    strategy_rows = [
        (
            strategy,
            achieved_fairness(
                instance,
                assign_with_strategy(instance, strategy, stats=stats, seed=seed),
                stats=stats,
            ),
        )
        for strategy in STRATEGIES
    ]
    # Future-work item (i): greedy + local-search refinement.
    from repro.core.refine import refine_assignment

    refined = refine_assignment(stats, maxfair(instance, stats=stats))
    strategy_rows.append(
        (
            "maxfair+refine",
            achieved_fairness(instance, refined.assignment, stats=stats),
        )
    )
    strategy_ablation = tuple(strategy_rows)
    return ScalingResult(
        scale=scale,
        grid=tuple(grid),
        order_ablation=order_ablation,
        strategy_ablation=strategy_ablation,
    )


def format_result(result: ScalingResult) -> str:
    grid_rows = [
        (cell.n_clusters, cell.n_categories, f"{cell.fairness:.4f}")
        for cell in result.grid
    ]
    parts = [
        format_table(
            ["|C| (paper scale)", "|S| (paper scale)", "fairness"],
            grid_rows,
            title=(
                "T1 — MaxFair fairness across scales "
                f"(min = {result.min_fairness:.4f}; paper claims > 0.90 "
                f"even at 50/200, > 0.95 typically); scale = {result.scale}"
            ),
        ),
        format_table(
            ["consideration order", "fairness"],
            [(name, f"{value:.4f}") for name, value in result.order_ablation],
            title="T1a — category consideration order ablation",
        ),
        format_table(
            ["strategy", "fairness"],
            [(name, f"{value:.4f}") for name, value in result.strategy_ablation],
            title="T1b — assignment strategy comparison",
        ),
    ]
    return "\n\n".join(parts)
