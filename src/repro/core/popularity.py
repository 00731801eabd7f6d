"""Normalized cluster popularities under the paper's limited-storage model.

Section 4 develops the load model in four steps of increasing generality;
each step changes how a cluster's *capacity* (the denominator of its
normalized popularity) is computed:

1. identical peers, one category per node (Section 4.1/4.2) —
   ``p(S_i) / |N_i|``;
2. heterogeneous processing (Section 4.3.1) — divide by the total
   computational units ``U_i`` instead of the node count;
3. nodes in several clusters (Section 4.3.2), each splitting its units
   across its clusters in proportion to their popularity;
4. limited storage (Section 4.3.3): nodes store only subsets ``D_i(k)`` of
   cluster content — ``p(S_i) / sum_k u_k * p(D_i(k)) / p(D(k))``.

This module computes model 4, the one every experiment reports.  Its
denominator decomposes into a per-category weight
``g(s) = sum_k u_k * p_k(s) / p(D(k))``, so a cluster's capacity is the sum
of its categories' weights and MaxFair evaluates a candidate placement in
O(1).  When every node contributes to one category, ``p_k(s) = p(D(k))``
for that category and ``g(s)`` is the summed units of its contributors —
model 2 — which with unit capacities is their count — model 1.  Model 3
keeps no per-category weight (its denominator depends on the whole
assignment); EXPERIMENTS.md records Figure 2 measured under all four.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.system import SystemInstance

__all__ = [
    "CategoryStats",
    "build_category_stats",
    "normalized_cluster_popularities",
    "cluster_members",
]


@dataclass(frozen=True, slots=True)
class CategoryStats:
    """Per-category aggregates of a system instance.

    Both arrays are indexed by category id; a cluster's popularity and
    capacity are sums of its categories' entries.

    Attributes
    ----------
    popularity:
        ``p(s)`` — total popularity of the category's documents.
    storage_weight:
        ``g(s) = sum_k u_k * p_k(s) / p(D(k))`` where ``p_k(s)`` is the
        popularity of node ``k``'s contributed documents in ``s`` — the
        per-category share of the model-4 denominator.
    """

    popularity: np.ndarray
    storage_weight: np.ndarray

    @property
    def n_categories(self) -> int:
        return len(self.popularity)

    def with_popularity(self, popularity: np.ndarray) -> "CategoryStats":
        """Copy with a new popularity vector but the *original* capacities.

        This is how the Section 5 robustness experiments evaluate a content
        perturbation: the load changed, but the resource structure (who
        contributes what, with which capacity) is still the one the original
        placement was computed for — until rebalancing moves data.
        """
        popularity = np.asarray(popularity, dtype=np.float64)
        if len(popularity) != self.n_categories:
            raise ValueError(
                f"popularity length {len(popularity)} != {self.n_categories}"
            )
        return CategoryStats(
            popularity=popularity, storage_weight=self.storage_weight
        )


def build_category_stats(instance: SystemInstance) -> CategoryStats:
    """Compute :class:`CategoryStats` for ``instance``.

    ``p(D(k))`` — the popularity of node ``k``'s stored documents in the
    model-4 weight — is taken over the node's *contributed* documents, which
    is the storage state at assignment time (replicas are placed only after
    categories have clusters).
    """
    # Accumulate into a plain list (float64 arithmetic either way, but list
    # indexing avoids numpy scalar-indexing overhead on this hot path).
    storage_weight = [0.0] * len(instance.categories)

    documents = instance.documents
    nodes = instance.nodes
    for node_id, cats in instance.node_categories.items():
        node = nodes[node_id]
        # p_k(s): node k's contributed popularity per category.
        per_category: dict[int, float] = {}
        get = per_category.get
        for doc_id in node.contributed_doc_ids:
            doc = documents[doc_id]
            doc_cats = doc.categories
            if len(doc_cats) == 1:
                category_id = doc_cats[0]
                per_category[category_id] = get(category_id, 0.0) + doc.popularity
            else:
                share = doc.popularity / len(doc_cats)
                for category_id in doc_cats:
                    per_category[category_id] = get(category_id, 0.0) + share
        total = sum(per_category.values())
        if total > 0:
            units = node.capacity_units
            for category_id in cats:
                storage_weight[category_id] += (
                    units * get(category_id, 0.0) / total
                )
    return CategoryStats(
        popularity=instance.category_popularity,
        storage_weight=np.array(storage_weight),
    )


def cluster_members(
    instance: SystemInstance, category_to_cluster: np.ndarray
) -> list[set[int]]:
    """``N_i`` — the node sets of each cluster under an assignment.

    A node belongs to every cluster holding at least one of the categories
    it contributes to (Section 3.1).
    """
    n_clusters = int(category_to_cluster.max(initial=-1)) + 1
    members: list[set[int]] = [set() for _ in range(n_clusters)]
    for node_id, cats in instance.node_categories.items():
        for category_id in cats:
            cluster = int(category_to_cluster[category_id])
            if cluster >= 0:
                members[cluster].add(node_id)
    return members


def normalized_cluster_popularities(
    instance: SystemInstance,
    category_to_cluster: np.ndarray,
    stats: CategoryStats | None = None,
    n_clusters: int | None = None,
) -> np.ndarray:
    """Normalized popularity of every cluster.

    Parameters
    ----------
    instance:
        The system the assignment lives in.
    category_to_cluster:
        Integer array mapping category id -> cluster id (-1 = unassigned).
    stats:
        Optional precomputed :func:`build_category_stats` (saves rework in
        sweeps).
    n_clusters:
        Number of clusters; defaults to the instance's configured count.
    """
    if n_clusters is None:
        n_clusters = instance.n_clusters
    category_to_cluster = np.asarray(category_to_cluster)
    if category_to_cluster.max(initial=-1) >= n_clusters:
        raise ValueError("assignment references a cluster id >= n_clusters")
    if stats is None:
        stats = build_category_stats(instance)
    load = np.zeros(n_clusters)
    capacity = np.zeros(n_clusters)
    for category_id, cluster in enumerate(category_to_cluster):
        if cluster < 0:
            continue
        load[cluster] += stats.popularity[category_id]
        capacity[cluster] += stats.storage_weight[category_id]
    normalized = np.zeros(n_clusters)
    populated = capacity > 0
    normalized[populated] = load[populated] / capacity[populated]
    # A populated cluster with zero capacity means contributing nodes are
    # gone — surface it as an (effectively) unbounded load.
    stranded = (~populated) & (load > 0)
    normalized[stranded] = np.inf
    return normalized
