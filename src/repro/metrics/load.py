"""Observed-load accounting.

The paper's load measure: "Load in our case is the number of requests
served by a data store node of the system" (Section 4).  These helpers
turn per-peer served-request counters into the distributions and fairness
numbers the experiments report:

* per-node load, normalized by capacity units (fair share is proportional
  to contributed capacity — Section 4.3.1);
* per-cluster load, normalized the same way;
* Jain fairness of both;
* the path from planned to realised fairness, factor by factor
  (:func:`fairness_decomposition`).
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.fairness import coefficient_of_variation, jain_fairness

__all__ = [
    "FairnessDecomposition", "LoadReportCard", "fairness_decomposition",
    "load_report",
]


@dataclass(frozen=True, slots=True)
class LoadReportCard:
    """Summary of an observed load distribution."""

    n_nodes: int
    total_requests: int
    node_fairness: float
    node_fairness_normalized: float
    cluster_fairness: float
    max_node_load: int
    mean_node_load: float
    cv: float

    def rows(self) -> list[tuple[str, str]]:
        """Key/value rows for plain-text reporting."""
        return [
            ("nodes", str(self.n_nodes)),
            ("total requests served", str(self.total_requests)),
            ("node fairness (raw)", f"{self.node_fairness:.4f}"),
            ("node fairness (per capacity unit)", f"{self.node_fairness_normalized:.4f}"),
            ("cluster fairness", f"{self.cluster_fairness:.4f}"),
            ("max node load", str(self.max_node_load)),
            ("mean node load", f"{self.mean_node_load:.2f}"),
            ("coefficient of variation", f"{self.cv:.4f}"),
        ]


def load_report(
    node_loads: dict[int, int],
    node_capacities: dict[int, float] | None = None,
    node_clusters: dict[int, set[int]] | None = None,
) -> LoadReportCard:
    """Build a :class:`LoadReportCard` from observed per-node loads.

    Parameters
    ----------
    node_loads:
        node id -> requests served.
    node_capacities:
        node id -> capacity units; when given, the normalized fairness
        divides each node's load by its capacity (heterogeneity-aware
        fairness, Section 4.3.1).
    node_clusters:
        node id -> clusters the node belongs to; when given, per-cluster
        loads are computed by splitting each node's load evenly over its
        clusters and cluster fairness is reported.
    """
    if not node_loads:
        raise ValueError("node_loads must be non-empty")
    node_ids = sorted(node_loads)
    loads = np.array([node_loads[n] for n in node_ids], dtype=np.float64)

    if node_capacities is not None:
        capacities = np.array(
            [node_capacities.get(n, 1.0) for n in node_ids], dtype=np.float64
        )
        normalized = loads / np.maximum(capacities, 1e-12)
    else:
        normalized = loads

    cluster_fairness = 1.0
    if node_clusters:
        cluster_loads: dict[int, float] = {}
        for node_id in node_ids:
            clusters = node_clusters.get(node_id, set())
            if not clusters:
                continue
            share = node_loads[node_id] / len(clusters)
            for cluster_id in clusters:
                cluster_loads[cluster_id] = cluster_loads.get(cluster_id, 0.0) + share
        if cluster_loads:
            cluster_fairness = jain_fairness(list(cluster_loads.values()))

    return LoadReportCard(
        n_nodes=len(node_ids),
        total_requests=int(loads.sum()),
        node_fairness=jain_fairness(loads),
        node_fairness_normalized=jain_fairness(normalized),
        cluster_fairness=cluster_fairness,
        max_node_load=int(loads.max()),
        mean_node_load=float(loads.mean()),
        cv=coefficient_of_variation(loads),
    )


@dataclass(frozen=True, slots=True)
class FairnessDecomposition:
    """Jain's index of load per capacity unit, taken apart.

    ``observed`` is the index over every node.  The factors below multiply
    to :attr:`product`, which equals it when every request was served by
    a member of the cluster it was served for.  ``cluster_fairness`` is
    the realised counterpart of the plan's (MaxFair's) index over
    clusters; it is not a factor.
    """

    observed: float
    cluster_fairness: float
    #: share of the nodes that serve some cluster: the index of a world in
    #: which the others serve nothing is at most this.
    ceiling: float
    #: Jain, over serving nodes, of the load a node would get per unit if
    #: every cluster split its realised load by capacity (a node collects
    #: one share per cluster it serves).
    inter_cluster: float
    #: what the dispatch weights take away from that: 1 when members are
    #: drawn by capacity, Jain(1 / capacity) for uniform draws in a single
    #: cluster.
    capacity: float
    #: realised against expected load (placement, forwarding), with the
    #: sampling noise divided out; above 1 when loads are more even than
    #: independent draws would make them.
    count_balance: float
    #: what independent (Poisson) draws around each node's expected load
    #: would leave of the balance: lambda / (lambda + 1) at lambda queries
    #: a node.
    sampling_floor: float

    @property
    def product(self) -> float:
        return (
            self.ceiling
            * self.inter_cluster
            * self.capacity
            * self.count_balance
            * self.sampling_floor
        )


def fairness_decomposition(
    node_cluster_loads: Mapping[int, Mapping[int, float]],
    node_capacities: Mapping[int, float],
    members: Mapping[int, Collection[int]],
    dispatch_weights: Mapping[int, float],
) -> FairnessDecomposition:
    """Decompose the Jain index of served load per capacity unit.

    Parameters
    ----------
    node_cluster_loads:
        node id -> cluster id -> requests the node served for that
        cluster; a node missing here served nothing.
    node_capacities:
        node id -> capacity units, for every node the index runs over.
    members:
        cluster id -> its member node ids.
    dispatch_weights:
        node id -> the weight a member is drawn with inside its clusters
        (its capacity under capacity-weighted dispatch, 1 under uniform).

    With ``Q_k`` the load cluster ``k`` served, ``C_k`` and ``W_k`` the
    capacity and dispatch weight of its members, a serving node ``n`` of
    capacity ``c`` and weight ``w`` would get ``r = sum_k Q_k / C_k`` per
    unit if clusters split by capacity, and is expected to get
    ``e = sum_k Q_k w / W_k`` under the dispatch weights:

    * ``inter_cluster`` = J(r), ``capacity`` = J(a) / J(r) for a = e / c;
    * for realised loads ``L`` and b = L / e, J(L / c) over serving nodes
      is J(a) times ``(sum ab)^2 sum a^2 / ((sum a)^2 sum a^2 b^2)``, the
      balance of realised against expected load.  Independent (Poisson)
      draws around ``e`` would give it ``sampling_floor`` = 1 / (1 +
      sum(a^2 / e) / sum a^2); ``count_balance`` is what is left.

    So :attr:`FairnessDecomposition.product` equals ``observed`` whenever
    every request was served by a member of the cluster it was served
    for (a cached copy outside the cluster breaks the identity).
    """
    node_ids = sorted(node_capacities)
    loads = np.array(
        [sum(node_cluster_loads.get(n, {}).values()) for n in node_ids],
        dtype=np.float64,
    )
    capacities = np.array([node_capacities[n] for n in node_ids], dtype=np.float64)
    observed = jain_fairness(loads / capacities)

    cluster_load: dict[int, float] = {}
    for per_cluster in node_cluster_loads.values():
        for cluster_id, load in per_cluster.items():
            cluster_load[cluster_id] = cluster_load.get(cluster_id, 0.0) + load
    per_unit: dict[int, float] = {}
    per_weight: dict[int, float] = {}
    for cluster_id, ids in members.items():
        if not ids:
            continue
        load = cluster_load.get(cluster_id, 0.0)
        per_unit[cluster_id] = load / sum(node_capacities[n] for n in ids)
        per_weight[cluster_id] = load / sum(dispatch_weights[n] for n in ids)

    shares_per_unit = dict.fromkeys(node_ids, 0.0)
    expected = dict.fromkeys(node_ids, 0.0)
    serving = set()
    for cluster_id in per_unit:
        for n in members[cluster_id]:
            serving.add(n)
            shares_per_unit[n] += per_unit[cluster_id]
            expected[n] += per_weight[cluster_id] * dispatch_weights[n]
    serving_ids = [n for n in node_ids if n in serving]
    index = {n: i for i, n in enumerate(node_ids)}
    rows = [index[n] for n in serving_ids]
    r = np.array([shares_per_unit[n] for n in serving_ids])
    e = np.array([expected[n] for n in serving_ids])
    a = e / capacities[rows]
    inter_cluster = jain_fairness(r)
    capacity = jain_fairness(a) / inter_cluster
    # J(L / c) = J(a) x balance exactly, for b = L / e and the moments of
    # b weighted by a and by a squared.
    drawn = e > 0
    a, b, e = a[drawn], loads[rows][drawn] / e[drawn], e[drawn]
    a2 = float(np.dot(a, a))
    if a2 > 0:
        balance = float(np.dot(a, b)) ** 2 * a2 / (
            float(a.sum()) ** 2 * float(np.dot(a * a, b * b))
        )
        sampling_floor = 1.0 / (1.0 + float(np.dot(a * a, 1.0 / e)) / a2)
    else:
        balance = sampling_floor = 1.0
    return FairnessDecomposition(
        observed=observed,
        cluster_fairness=jain_fairness(list(per_unit.values())),
        ceiling=len(serving_ids) / len(node_ids),
        inter_cluster=inter_cluster,
        capacity=capacity,
        count_balance=balance / sampling_floor,
        sampling_floor=sampling_floor,
    )
