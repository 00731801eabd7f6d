"""F4 — Figure 4: robustness under varying content population/popularity.

Section 5's stress test: after MaxFair places categories, 5% new documents
are added which become the most popular content in the system, together
carrying 30% of the total probability mass, "assigned randomly to some
semantic categories".  The resulting fairness is computed **against the
initial placement** (MaxFair is *not* re-run).  The paper sweeps the Zipf
parameter theta from 0.4 to 0.8 and reports that initial fairness is ~1.0
everywhere while the post-perturbation fairness degrades but stays
tolerable (worst case: 1.0 -> 0.78).

Reproduction notes: the exact spread of the new mass over categories is
not specified; we concentrate it on a random 15% of categories (a
flash-crowd-style upset), which lands the post-perturbation fairness in
the paper's 0.78-0.93 band.  The evaluation freezes the original capacity
structure (see :func:`repro.experiments.common.frozen_capacity_fairness`)
— the load changed, the placement did not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.maxfair import maxfair
from repro.core.popularity import build_category_stats
from repro.experiments.common import (
    ALGO_SCALE,
    fairness_of_assignment,
    frozen_capacity_fairness,
)
from repro.metrics.report import format_table
from repro.model.workload import add_hot_documents, zipf_category_scenario

__all__ = ["Figure4Point", "Figure4Result", "run", "format_result"]

PAPER_WORST_FINAL = 0.78
THETAS = (0.4, 0.5, 0.6, 0.7, 0.8)


@dataclass(frozen=True, slots=True)
class Figure4Point:
    """One theta's (initial, final) fairness pair."""

    theta: float
    initial_fairness: float
    final_fairness: float


@dataclass(frozen=True, slots=True)
class Figure4Result:
    scale: float
    points: tuple[Figure4Point, ...]


def run(
    scale: float = ALGO_SCALE,
    seed: int = 7,
    thetas: tuple[float, ...] = THETAS,
    doc_fraction: float = 0.05,
    mass_fraction: float = 0.30,
    category_subset_fraction: float = 0.15,
    n_repeats: int = 3,
) -> Figure4Result:
    """Sweep theta; measure fairness before/after the perturbation.

    ``n_repeats`` perturbation seeds are averaged per theta (the paper
    plots a single curve; averaging removes one-draw noise at reduced
    scale).
    """
    points = []
    for theta in thetas:
        instance = zipf_category_scenario(
            scale=scale, seed=seed, doc_theta=theta, category_theta=0.7
        )
        stats = build_category_stats(instance)
        assignment = maxfair(instance, stats=stats)
        initial = fairness_of_assignment(stats, assignment)

        finals = []
        for repeat in range(n_repeats):
            perturbed = zipf_category_scenario(
                scale=scale, seed=seed, doc_theta=theta, category_theta=0.7
            )
            add_hot_documents(
                perturbed,
                doc_fraction=doc_fraction,
                mass_fraction=mass_fraction,
                seed=seed + 101 * (repeat + 1),
                new_doc_theta=theta,
                category_subset_fraction=category_subset_fraction,
            )
            new_stats = build_category_stats(perturbed)
            finals.append(
                frozen_capacity_fairness(stats, new_stats.popularity, assignment)
            )
        points.append(
            Figure4Point(
                theta=theta,
                initial_fairness=float(initial),
                final_fairness=float(sum(finals) / len(finals)),
            )
        )
    return Figure4Result(scale=scale, points=tuple(points))


def format_result(result: Figure4Result) -> str:
    rows = [
        (p.theta, f"{p.initial_fairness:.4f}", f"{p.final_fairness:.4f}")
        for p in result.points
    ]
    header = (
        f"F4 / Figure 4 — fairness before/after 30%-mass perturbation "
        f"(paper worst final: {PAPER_WORST_FINAL}), scale = {result.scale}"
    )
    return format_table(
        ["theta", "initial fairness", "final fairness"], rows, title=header
    )
