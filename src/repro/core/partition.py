"""The formal ICLB decision problem (Section 4.2).

The Inter-Cluster Load Balancing decision problem:

    **Instance**: nodes N, documents D with popularities, each document in
    one category, each node contributing documents of a single category,
    identical node capacities; an integer k.

    **Question**: is there a partition of N into clusters N_1..N_k such
    that (1) documents of one category land in one cluster and (2) all
    normalized cluster popularities ``p(S_i) / |N_i|`` are equal?

The paper proves ICLB NP-complete by reduction from BALANCED PARTITION (a
generalization of PARTITION [21]).  This module provides:

* a compact instance representation (category popularities + per-category
  node counts — constraint (1) makes categories atomic, so nothing more is
  needed);
* an exhaustive solver usable for small instances (and as an oracle in
  tests against MaxFair);
* the PARTITION -> ICLB reduction, demonstrating the hardness construction
  executable end-to-end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.core.fairness import jain_fairness

__all__ = [
    "ICLBInstance",
    "iclb_decision",
    "best_assignment_exhaustive",
    "partition_to_iclb",
    "partition_decision",
]

#: Largest spread of normalized popularities still read as "all equal".
TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True)
class ICLBInstance:
    """A compact ICLB instance.

    Because every category's nodes must stay together (constraint 1), an
    instance is fully described by each category's total popularity and its
    contributor count, plus the number of clusters ``k``.
    """

    category_popularity: tuple[float, ...]
    category_nodes: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if len(self.category_popularity) != len(self.category_nodes):
            raise ValueError("popularity and node-count vectors differ in length")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if any(p < 0 for p in self.category_popularity):
            raise ValueError("popularities must be non-negative")
        if any(n < 1 for n in self.category_nodes):
            raise ValueError("every category needs at least one node")

    @property
    def n_categories(self) -> int:
        return len(self.category_popularity)

    def normalized_popularities(self, assignment: tuple[int, ...]) -> np.ndarray:
        """``p(S_i) / |N_i|`` per cluster for a category -> cluster map."""
        load = np.zeros(self.k)
        nodes = np.zeros(self.k)
        for category_id, cluster in enumerate(assignment):
            if not 0 <= cluster < self.k:
                raise ValueError(f"cluster {cluster} out of range for k={self.k}")
            load[cluster] += self.category_popularity[category_id]
            nodes[cluster] += self.category_nodes[category_id]
        return np.divide(load, nodes, out=np.zeros(self.k), where=nodes > 0)


def _all_assignments(n_categories: int, k: int):
    """Yield every category -> cluster map, fixing category 0 in cluster 0.

    Cluster labels are symmetric, so pinning the first category prunes a
    factor of ``k`` without losing any partition.
    """
    if n_categories == 0:
        yield ()
        return
    for rest in itertools.product(range(k), repeat=n_categories - 1):
        yield (0, *rest)


def iclb_decision(instance: ICLBInstance) -> bool:
    """Exhaustively answer the ICLB decision question.

    Exponential in the number of categories — usable as a ground-truth
    oracle for tiny instances only.
    """
    for assignment in _all_assignments(instance.n_categories, instance.k):
        values = instance.normalized_popularities(assignment)
        # Constraint 2 as stated requires all clusters' normalized
        # popularities equal; empty clusters (no nodes) are excluded since
        # they host no categories by construction.
        occupied = [values[c] for c in set(assignment)]
        if not occupied:
            continue
        if max(occupied) - min(occupied) <= TOLERANCE and len(set(assignment)) == min(
            instance.k, instance.n_categories
        ):
            return True
    return False


def best_assignment_exhaustive(
    instance: ICLBInstance,
) -> tuple[tuple[int, ...], float]:
    """Optimal assignment under the Jain-fairness objective (brute force).

    Returns the best category -> cluster map and its fairness index; the
    oracle that MaxFair's greedy answers are tested against.
    """
    best_assignment: tuple[int, ...] | None = None
    best_fairness = -math.inf
    for assignment in _all_assignments(instance.n_categories, instance.k):
        fairness = jain_fairness(instance.normalized_popularities(assignment))
        if fairness > best_fairness:
            best_assignment, best_fairness = assignment, fairness
    if best_assignment is None:
        raise ValueError("instance has no categories")
    return best_assignment, best_fairness


def partition_to_iclb(weights: list[int]) -> ICLBInstance:
    """Reduce a PARTITION instance to ICLB (the NP-hardness construction).

    PARTITION asks whether integer weights can be split into two sets of
    equal sum.  Map each weight ``w_i`` to a category of popularity ``w_i``
    contributed by exactly one node, with ``k = 2`` clusters.  Equal
    normalized popularities with equal node counts per cluster is exactly a
    balanced partition; the paper's proof uses the BALANCED PARTITION
    variant, which this mirrors when ``len(weights)`` is even.
    """
    if not weights:
        raise ValueError("PARTITION instance must be non-empty")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    return ICLBInstance(
        category_popularity=tuple(float(w) for w in weights),
        category_nodes=tuple(1 for _ in weights),
        k=2,
    )


def partition_decision(weights: list[int]) -> bool:
    """Classic PARTITION via dynamic programming (pseudo-polynomial).

    Used by the tests to cross-check the reduction: PARTITION is a yes
    instance iff the reduced ICLB instance admits clusters of equal
    normalized popularity *and equal node count* — i.e. a balanced split.
    """
    total = sum(weights)
    if total % 2 != 0:
        return False
    target = total // 2
    reachable = {0}
    for w in weights:
        reachable |= {r + w for r in reachable if r + w <= target}
    return target in reachable


def balanced_partition_decision(weights: list[int]) -> bool:
    """BALANCED PARTITION: equal sums *and* equal cardinality halves.

    The generalization of PARTITION the paper's proof sketch reduces from.
    Dynamic programming over (count, sum) pairs.
    """
    n = len(weights)
    if n % 2 != 0:
        return False
    total = sum(weights)
    if total % 2 != 0:
        return False
    target_sum, target_count = total // 2, n // 2
    reachable: set[tuple[int, int]] = {(0, 0)}
    for w in weights:
        additions = {
            (count + 1, s + w)
            for count, s in reachable
            if count + 1 <= target_count and s + w <= target_sum
        }
        reachable |= additions
    return (target_count, target_sum) in reachable
