"""The MaxFair greedy algorithm for inter-cluster load balancing.

Section 4.4: MaxFair considers each category in turn and assigns it to the
cluster that yields the **maximum fairness index** over the normalized
cluster popularities that would result.  All ``|C|`` candidate placements
are tested per category, giving the paper's worst-case complexity of
``O(|S| * |C|^2)``.

This implementation maintains running sums of the normalized-popularity
vector and of its squares (:class:`repro.core.fairness.JainState`),
evaluating each candidate in O(1); this computes exactly the same argmax
as the textbook re-evaluation (the tests cross-check the two), just in
``O(|S| * |C|)``.  The objective is the paper's Jain index under the
limited-storage capacity model (:mod:`repro.core.popularity`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.fairness import JainState, jain_fairness
from repro.core.popularity import (
    CategoryStats,
    build_category_stats,
    normalized_cluster_popularities,
)
from repro.model.system import SystemInstance

__all__ = ["Assignment", "maxfair", "maxfair_from_stats", "category_order"]

#: Category consideration orders supported by :func:`maxfair`.
ORDERS = ("popularity_desc", "popularity_asc", "arbitrary")


@dataclass(slots=True)
class Assignment:
    """A (partial) assignment of document categories to peer clusters.

    ``category_to_cluster[s]`` is the cluster id holding category ``s``,
    or -1 while unassigned.  Each category belongs to at most one cluster
    (Section 3.1); clusters may be empty.
    """

    category_to_cluster: np.ndarray
    n_clusters: int
    #: per-category move counters, incremented on every reassignment —
    #: the conflict-resolution clock of Section 6.1.2's lazy protocol.
    move_counters: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.category_to_cluster = np.asarray(
            self.category_to_cluster, dtype=np.int64
        )
        if self.n_clusters <= 0:
            raise ValueError(f"n_clusters must be positive, got {self.n_clusters}")
        if self.category_to_cluster.max(initial=-1) >= self.n_clusters:
            raise ValueError("assignment references a cluster id >= n_clusters")
        if self.move_counters is None:
            self.move_counters = np.zeros(len(self.category_to_cluster), np.int64)

    @property
    def n_categories(self) -> int:
        return len(self.category_to_cluster)

    def cluster_of(self, category_id: int) -> int:
        cluster = int(self.category_to_cluster[category_id])
        if cluster < 0:
            raise KeyError(f"category {category_id} is unassigned")
        return cluster

    def categories_in(self, cluster_id: int) -> list[int]:
        return [int(s) for s in np.flatnonzero(self.category_to_cluster == cluster_id)]

    def is_complete(self) -> bool:
        return bool(np.all(self.category_to_cluster >= 0))

    def move(self, category_id: int, new_cluster: int) -> None:
        """Reassign a category, bumping its move counter."""
        if not 0 <= new_cluster < self.n_clusters:
            raise ValueError(f"cluster {new_cluster} out of range")
        self.category_to_cluster[category_id] = new_cluster
        self.move_counters[category_id] += 1

    def copy(self) -> "Assignment":
        return Assignment(
            category_to_cluster=self.category_to_cluster.copy(),
            n_clusters=self.n_clusters,
            move_counters=self.move_counters.copy(),
        )


def category_order(popularity: np.ndarray, order: str) -> np.ndarray:
    """Return category ids in the requested consideration order."""
    if order == "popularity_desc":
        return np.argsort(-popularity, kind="stable")
    if order == "popularity_asc":
        return np.argsort(popularity, kind="stable")
    if order == "arbitrary":
        return np.arange(len(popularity))
    raise ValueError(f"unknown order {order!r}; choose from {ORDERS}")


def maxfair_from_stats(
    stats: CategoryStats, n_clusters: int, order: str = "popularity_desc"
) -> Assignment:
    """Run MaxFair over precomputed category statistics.

    Zero-popularity (empty) categories are assigned to cluster 0, matching
    the publish protocol's default mapping for unpublished categories
    (Section 6.2).
    """
    popularity = stats.popularity
    weights = stats.storage_weight
    assignment = Assignment(
        category_to_cluster=np.full(stats.n_categories, -1, dtype=np.int64),
        n_clusters=n_clusters,
    )
    state = JainState(n_clusters)
    for category_id in category_order(popularity, order):
        category_id = int(category_id)
        pop, weight = float(popularity[category_id]), float(weights[category_id])
        if pop <= 0.0:
            assignment.category_to_cluster[category_id] = 0
            continue
        gains = [
            state.fairness_if((cluster, pop, weight))
            for cluster in range(n_clusters)
        ]
        best = int(np.argmax(gains))
        state.apply((best, pop, weight))
        assignment.category_to_cluster[category_id] = best
    return assignment


def maxfair(
    instance: SystemInstance,
    order: str = "popularity_desc",
    stats: CategoryStats | None = None,
) -> Assignment:
    """Run MaxFair on a system instance.

    Returns a complete :class:`Assignment` of every category to a cluster.
    The achieved fairness can be read back with :func:`achieved_fairness`.
    """
    if stats is None:
        stats = build_category_stats(instance)
    return maxfair_from_stats(stats, n_clusters=instance.n_clusters, order=order)


def achieved_fairness(
    instance: SystemInstance,
    assignment: Assignment,
    stats: CategoryStats | None = None,
) -> float:
    """Jain fairness of the normalized cluster popularities of ``assignment``."""
    values = normalized_cluster_popularities(
        instance,
        assignment.category_to_cluster,
        stats=stats,
        n_clusters=assignment.n_clusters,
    )
    finite = np.where(np.isfinite(values), values, 0.0)
    if np.any(~np.isfinite(values)):
        return 0.0
    return jain_fairness(finite)
