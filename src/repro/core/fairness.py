"""Fairness metrics for load distribution.

The paper measures inter-cluster load balance with the fairness index of
Jain, Chiu and Hawe [25]:

    fairness(x) = (sum x_i)^2 / (n * sum x_i^2)

which lies in (0, 1], is scale-invariant, and equals 1 exactly when all
allocations are equal.  A value of ``f`` reads as "the allocation is fair
for a fraction f of the participants".

The index is the one objective MaxFair, MaxFair_Reassign and the
refinement maximize, kept incrementally by :class:`JainState`.  The
paper's future-work item (v) asks for alternative fairness metrics; this
module also provides majorization (shown stricter than the fairness index
by Bhargava, Goel and Meyerson [24]), the Gini coefficient and the
coefficient of variation, as views of a load vector.  Run as MaxFair's
objective on the Figure 2 scenario, these, the index and the max/min
ratio reached Jain indices within 3e-4 of one another (EXPERIMENTS.md),
so the objective is fixed to the paper's.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "jain_fairness",
    "JainState",
    "majorizes",
    "gini",
    "lorenz_curve",
    "coefficient_of_variation",
]


def _as_array(x: Sequence[float]) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D allocation vector, got shape {arr.shape}")
    if len(arr) == 0:
        raise ValueError("allocation vector must be non-empty")
    if np.any(arr < 0):
        raise ValueError("allocations must be non-negative")
    return arr


def jain_fairness(x: Sequence[float]) -> float:
    """Jain's fairness index of an allocation vector.

    Returns 1.0 for the all-zero vector (everyone equally gets nothing),
    matching the equal-allocation limit.
    """
    arr = _as_array(x)
    total = arr.sum()
    if total == 0.0:
        return 1.0
    # Rescale by the maximum first: the index is scale-invariant and the
    # squared sums would underflow to 0/0 for denormally small allocations.
    arr = arr / arr.max()
    total = arr.sum()
    return float(total * total / (len(arr) * np.dot(arr, arr)))


class JainState:
    """The Jain index of ``load / capacity`` per cluster, kept incrementally.

    Holds per-cluster load and capacity plus the running sum and
    sum-of-squares of the normalized vector ``values = load / capacity``
    (0 where the capacity is 0), so evaluating or applying a change costs
    O(clusters touched) instead of O(clusters).  A change is a
    ``(cluster, d_load, d_capacity)`` triple; MaxFair places with one,
    MaxFair_Reassign moves and the refinement swaps with two.
    """

    def __init__(self, n_clusters: int) -> None:
        self.n = n_clusters
        self.load = np.zeros(n_clusters)
        self.capacity = np.zeros(n_clusters)
        self.values = np.zeros(n_clusters)
        self.sum1 = 0.0
        self.sum2 = 0.0

    @classmethod
    def of_assignment(cls, stats, assignment) -> "JainState":
        """The state of ``assignment`` under ``stats.popularity`` and
        ``stats.storage_weight``; unassigned categories (-1) count nowhere."""
        state = cls(assignment.n_clusters)
        load, capacity = state.load, state.capacity
        weights = stats.storage_weight
        for category_id, cluster in enumerate(assignment.category_to_cluster):
            if cluster >= 0:
                load[cluster] += stats.popularity[category_id]
                capacity[cluster] += weights[category_id]
        np.divide(load, capacity, out=state.values, where=capacity > 0)
        state.sum1 = float(state.values.sum())
        state.sum2 = float(np.dot(state.values, state.values))
        return state

    def fairness(self) -> float:
        if self.sum2 <= 0.0:
            return 1.0
        return self.sum1 * self.sum1 / (self.n * self.sum2)

    def fairness_if(self, *changes: tuple[int, float, float]) -> float:
        """The index after ``changes``, without applying them."""
        sum1, sum2 = self.sum1, self.sum2
        for cluster, d_load, d_capacity in changes:
            old = self.values[cluster]
            capacity = self.capacity[cluster] + d_capacity
            new = (self.load[cluster] + d_load) / capacity if capacity > 0 else 0.0
            sum1 += new - old
            sum2 += new * new - old * old
        if sum2 <= 0.0:
            return 1.0
        return sum1 * sum1 / (self.n * sum2)

    def apply(self, *changes: tuple[int, float, float]) -> None:
        """Apply ``changes``; load and capacity clamp at 0 (the residue of
        float cancellation when a cluster's last category leaves)."""
        for cluster, d_load, d_capacity in changes:
            old = self.values[cluster]
            load = self.load[cluster] = max(0.0, self.load[cluster] + d_load)
            capacity = self.capacity[cluster] = max(
                0.0, self.capacity[cluster] + d_capacity
            )
            new = load / capacity if capacity > 0 else 0.0
            self.values[cluster] = new
            self.sum1 += new - old
            self.sum2 += new * new - old * old


def majorizes(x: Sequence[float], y: Sequence[float]) -> bool:
    """True when ``x`` majorizes ``y`` (``x`` is *less* fair than ``y``).

    ``x`` majorizes ``y`` iff, after sorting both in decreasing order, every
    prefix sum of ``x`` is >= the corresponding prefix sum of ``y``, with
    equal totals.  Majorization is a partial order strictly finer than any
    scalar fairness metric [24]: if ``x`` majorizes ``y`` then every Schur-
    convex unfairness measure ranks ``x`` as at least as unfair as ``y``.
    """
    a = np.sort(_as_array(x))[::-1]
    b = np.sort(_as_array(y))[::-1]
    if len(a) != len(b):
        raise ValueError(f"vectors must have equal length: {len(a)} vs {len(b)}")
    if not np.isclose(a.sum(), b.sum()):
        raise ValueError(
            f"majorization requires equal totals: {a.sum()} vs {b.sum()}"
        )
    prefix_a = np.cumsum(a)
    prefix_b = np.cumsum(b)
    return bool(np.all(prefix_a >= prefix_b - 1e-12))


def lorenz_curve(x: Sequence[float]) -> np.ndarray:
    """Normalized Lorenz curve points ``L_k = (sum of k smallest) / total``.

    Returns an array of length ``n + 1`` starting at 0 and ending at 1.
    The all-zero vector maps to the egalitarian diagonal.
    """
    arr = np.sort(_as_array(x))
    total = arr.sum()
    if total == 0.0:
        return np.linspace(0.0, 1.0, len(arr) + 1)
    return np.concatenate([[0.0], np.cumsum(arr) / total])


def gini(x: Sequence[float]) -> float:
    """Gini coefficient in [0, 1); 0 means perfectly equal."""
    arr = np.sort(_as_array(x))
    total = arr.sum()
    n = len(arr)
    if total == 0.0:
        return 0.0
    index = np.arange(1, n + 1)
    return float((2.0 * np.dot(index, arr) / (n * total)) - (n + 1) / n)


def coefficient_of_variation(x: Sequence[float]) -> float:
    """Standard deviation over mean; 0 means perfectly equal."""
    arr = _as_array(x)
    mean = arr.mean()
    if mean == 0.0:
        return 0.0
    return float(arr.std() / mean)

