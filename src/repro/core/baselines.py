"""Baseline category-to-cluster assignment strategies.

The paper observes that overlay networks like Chord/CAN/Pastry/Tapestry
address load balancing "in a rather naive way simply by resorting to the
uniformity of the hash function".  These baselines make that comparison
concrete at the assignment level:

* ``random``    — each category to a uniform random cluster;
* ``round_robin`` — categories dealt in id order;
* ``hash``      — cluster = hash(category id) mod k, the DHT-style rule;
* ``lpt``       — longest-processing-time greedy: consider categories by
  descending popularity and put each on the cluster whose normalized
  popularity is currently lowest (the classic makespan heuristic; the
  natural "obvious greedy" MaxFair is benchmarked against).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.maxfair import Assignment, maxfair_from_stats
from repro.core.popularity import CategoryStats, build_category_stats
from repro.model.system import SystemInstance

__all__ = [
    "random_assignment",
    "round_robin_assignment",
    "hash_assignment",
    "lpt_assignment",
    "ASSIGNMENT_STRATEGIES",
    "assign_with_strategy",
]


def random_assignment(
    n_categories: int, n_clusters: int, seed: int = 0
) -> Assignment:
    """Assign each category to a uniformly random cluster."""
    rng = np.random.default_rng(seed)
    return Assignment(
        category_to_cluster=rng.integers(0, n_clusters, size=n_categories),
        n_clusters=n_clusters,
    )


def round_robin_assignment(n_categories: int, n_clusters: int) -> Assignment:
    """Deal categories to clusters in id order."""
    return Assignment(
        category_to_cluster=np.arange(n_categories) % n_clusters,
        n_clusters=n_clusters,
    )


def hash_assignment(n_categories: int, n_clusters: int) -> Assignment:
    """DHT-style placement: cluster = stable_hash(category) mod k.

    Uses a cryptographic hash so the mapping is uniform but deterministic
    across runs and platforms (Python's builtin ``hash`` is salted).
    """

    def stable_hash(category_id: int) -> int:
        digest = hashlib.sha1(str(category_id).encode("ascii")).digest()
        return int.from_bytes(digest[:8], "big")

    mapping = np.array(
        [stable_hash(s) % n_clusters for s in range(n_categories)], dtype=np.int64
    )
    return Assignment(category_to_cluster=mapping, n_clusters=n_clusters)


def lpt_assignment(stats: CategoryStats, n_clusters: int) -> Assignment:
    """Longest-processing-time greedy on normalized popularity.

    Unlike MaxFair it does not evaluate the global fairness index; it just
    tops up the currently least-loaded cluster.  The two coincide often but
    not always — the difference is the subject of an ablation bench.
    """
    weights = stats.storage_weight
    order = np.argsort(-stats.popularity, kind="stable")
    load = np.zeros(n_clusters)
    capacity = np.zeros(n_clusters)
    mapping = np.full(stats.n_categories, -1, dtype=np.int64)
    for category_id in order:
        category_id = int(category_id)
        pop = float(stats.popularity[category_id])
        if pop <= 0.0:
            mapping[category_id] = 0
            continue
        weight = float(weights[category_id])
        values = np.divide(
            load, capacity, out=np.zeros(n_clusters), where=capacity > 0
        )
        # Least normalized popularity; empty clusters (capacity 0) first.
        candidate = np.where(capacity > 0, values, -1.0)
        best = int(np.argmin(candidate))
        load[best] += pop
        capacity[best] += weight
        mapping[category_id] = best
    return Assignment(category_to_cluster=mapping, n_clusters=n_clusters)


ASSIGNMENT_STRATEGIES = ("maxfair", "random", "round_robin", "hash", "lpt")


def assign_with_strategy(
    instance: SystemInstance,
    strategy: str,
    stats: CategoryStats | None = None,
    seed: int = 0,
) -> Assignment:
    """Uniform front door over MaxFair and all baselines."""
    n_categories = len(instance.categories)
    n_clusters = instance.n_clusters
    if strategy == "random":
        return random_assignment(n_categories, n_clusters, seed=seed)
    if strategy == "round_robin":
        return round_robin_assignment(n_categories, n_clusters)
    if strategy == "hash":
        return hash_assignment(n_categories, n_clusters)
    if stats is None:
        stats = build_category_stats(instance)
    if strategy == "lpt":
        return lpt_assignment(stats, n_clusters)
    if strategy == "maxfair":
        return maxfair_from_stats(stats, n_clusters)
    raise ValueError(
        f"unknown strategy {strategy!r}; choose from {ASSIGNMENT_STRATEGIES}"
    )
