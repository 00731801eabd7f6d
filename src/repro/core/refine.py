"""Local-search refinement of category assignments.

The paper's future-work item (i) asks for "the development of optimal
algorithms for inter-cluster load balancing and heuristics achieving
near-optimal performance".  MaxFair is a single-pass greedy; this module
adds a hill-climbing refinement pass over a complete assignment:

* **move** steps relocate one category to another cluster;
* **swap** steps exchange the clusters of two categories (escapes local
  optima that single moves cannot, e.g. two mid-size categories stuck on
  the wrong sides of two clusters).

Both step types are evaluated incrementally in O(1) using the same
running-sums trick as MaxFair, and the search is steepest-ascent: the
best improving step over the whole neighbourhood is applied each round.
On the tiny instances where the exhaustive oracle is feasible, refinement
closes most of the greedy's gap to the optimum (see
``tests/test_refine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.maxfair import Assignment
from repro.core.popularity import CategoryStats, ClusterModel

__all__ = ["RefineResult", "refine_assignment"]


@dataclass(frozen=True, slots=True)
class RefineResult:
    """Outcome of a refinement run."""

    assignment: Assignment
    initial_fairness: float
    final_fairness: float
    moves_applied: int
    swaps_applied: int


class _State:
    """Cluster load/capacity sums with O(1) move and swap evaluation."""

    def __init__(
        self,
        stats: CategoryStats,
        assignment: Assignment,
        weights: np.ndarray,
    ) -> None:
        n = assignment.n_clusters
        self.load = np.zeros(n)
        self.capacity = np.zeros(n)
        for category_id, cluster in enumerate(assignment.category_to_cluster):
            if cluster >= 0:
                self.load[cluster] += stats.popularity[category_id]
                self.capacity[cluster] += weights[category_id]
        self.values = np.divide(
            self.load, self.capacity, out=np.zeros(n), where=self.capacity > 0
        )
        self.n = n
        self.sum1 = float(self.values.sum())
        self.sum2 = float(np.dot(self.values, self.values))

    def fairness(self) -> float:
        if self.sum2 <= 0.0:
            return 1.0
        return self.sum1 * self.sum1 / (self.n * self.sum2)

    @staticmethod
    def _value(load: float, capacity: float) -> float:
        return load / capacity if capacity > 0 else 0.0

    def _fairness_with(self, replacements: dict[int, tuple[float, float]]) -> float:
        """Fairness if clusters in ``replacements`` got (load, capacity)."""
        sum1, sum2 = self.sum1, self.sum2
        for cluster, (load, capacity) in replacements.items():
            old = self.values[cluster]
            new = self._value(load, capacity)
            sum1 += new - old
            sum2 += new * new - old * old
        if sum2 <= 0.0:
            return 1.0
        return sum1 * sum1 / (self.n * sum2)

    def fairness_if_moved(
        self, pop: float, weight: float, source: int, target: int
    ) -> float:
        return self._fairness_with(
            {
                source: (self.load[source] - pop, self.capacity[source] - weight),
                target: (self.load[target] + pop, self.capacity[target] + weight),
            }
        )

    def fairness_if_swapped(
        self,
        pop_a: float,
        weight_a: float,
        cluster_a: int,
        pop_b: float,
        weight_b: float,
        cluster_b: int,
    ) -> float:
        return self._fairness_with(
            {
                cluster_a: (
                    self.load[cluster_a] - pop_a + pop_b,
                    self.capacity[cluster_a] - weight_a + weight_b,
                ),
                cluster_b: (
                    self.load[cluster_b] - pop_b + pop_a,
                    self.capacity[cluster_b] - weight_b + weight_a,
                ),
            }
        )

    def apply(self, deltas: dict[int, tuple[float, float]]) -> None:
        """Apply (load delta, capacity delta) per cluster."""
        for cluster, (d_load, d_capacity) in deltas.items():
            old = self.values[cluster]
            self.load[cluster] = max(0.0, self.load[cluster] + d_load)
            self.capacity[cluster] = max(0.0, self.capacity[cluster] + d_capacity)
            new = self._value(self.load[cluster], self.capacity[cluster])
            self.values[cluster] = new
            self.sum1 += new - old
            self.sum2 += new * new - old * old


def refine_assignment(
    stats: CategoryStats,
    assignment: Assignment,
    max_rounds: int = 200,
    model: ClusterModel = ClusterModel.LIMITED_STORAGE,
    enable_swaps: bool = True,
    min_gain: float = 1e-9,
) -> RefineResult:
    """Hill-climb ``assignment`` toward higher fairness.

    Returns a refined *copy*; the input assignment is untouched (and move
    counters are bumped for every applied step so downstream lazy
    rebalancing stays consistent).
    """
    if not assignment.is_complete():
        raise ValueError("refinement requires a complete assignment")
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")

    refined = assignment.copy()
    weights = stats.weights_for(model)
    state = _State(stats, refined, weights)
    initial = state.fairness()
    moves_applied = 0
    swaps_applied = 0

    active = [
        category_id
        for category_id in range(stats.n_categories)
        if stats.popularity[category_id] > 0
    ]

    for _ in range(max_rounds):
        current = state.fairness()
        best_gain = min_gain
        best_action: tuple | None = None

        # Move neighbourhood.
        for category_id in active:
            source = int(refined.category_to_cluster[category_id])
            pop = float(stats.popularity[category_id])
            weight = float(weights[category_id])
            for target in range(refined.n_clusters):
                if target == source:
                    continue
                gain = (
                    state.fairness_if_moved(pop, weight, source, target) - current
                )
                if gain > best_gain:
                    best_gain = gain
                    best_action = ("move", category_id, source, target)

        # Swap neighbourhood (pairs in different clusters).
        if enable_swaps:
            for i, cat_a in enumerate(active):
                cluster_a = int(refined.category_to_cluster[cat_a])
                pop_a = float(stats.popularity[cat_a])
                weight_a = float(weights[cat_a])
                for cat_b in active[i + 1 :]:
                    cluster_b = int(refined.category_to_cluster[cat_b])
                    if cluster_a == cluster_b:
                        continue
                    gain = (
                        state.fairness_if_swapped(
                            pop_a,
                            weight_a,
                            cluster_a,
                            float(stats.popularity[cat_b]),
                            float(weights[cat_b]),
                            cluster_b,
                        )
                        - current
                    )
                    if gain > best_gain:
                        best_gain = gain
                        best_action = ("swap", cat_a, cat_b)

        if best_action is None:
            break  # local optimum

        if best_action[0] == "move":
            _, category_id, source, target = best_action
            pop = float(stats.popularity[category_id])
            weight = float(weights[category_id])
            state.apply({source: (-pop, -weight), target: (pop, weight)})
            refined.move(category_id, target)
            moves_applied += 1
        else:
            _, cat_a, cat_b = best_action
            cluster_a = int(refined.category_to_cluster[cat_a])
            cluster_b = int(refined.category_to_cluster[cat_b])
            pop_a, weight_a = float(stats.popularity[cat_a]), float(weights[cat_a])
            pop_b, weight_b = float(stats.popularity[cat_b]), float(weights[cat_b])
            state.apply(
                {
                    cluster_a: (pop_b - pop_a, weight_b - weight_a),
                    cluster_b: (pop_a - pop_b, weight_a - weight_b),
                }
            )
            refined.move(cat_a, cluster_b)
            refined.move(cat_b, cluster_a)
            swaps_applied += 1

    return RefineResult(
        assignment=refined,
        initial_fairness=initial,
        final_fairness=state.fairness(),
        moves_applied=moves_applied,
        swaps_applied=swaps_applied,
    )
