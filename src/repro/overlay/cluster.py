"""Cluster graphs and leader election (Section 6.1.1).

A cluster's nodes know some of their fellow members (their NRT entries)
and are connected in a *cluster graph*, and the most capable node is
elected leader.  The monitoring tree of Section 6.1.2 is not built here:
it forms on the fly over this graph, each node taking the sender of the
first request it sees as its parent
(:mod:`repro.overlay.adaptation_protocol`).

This module provides the pure (message-free) parts: random connected
graph construction and the election rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ClusterGraph",
    "build_cluster_graph",
    "elect_leader",
]


@dataclass(slots=True)
class ClusterGraph:
    """Undirected membership graph of one cluster."""

    cluster_id: int
    adjacency: dict[int, set[int]] = field(default_factory=dict)

    @property
    def members(self) -> set[int]:
        return set(self.adjacency)

    def neighbors(self, node_id: int) -> set[int]:
        return self.adjacency.get(node_id, set())

    def add_member(self, node_id: int, attach_to) -> None:
        """Add a node, connecting it to the given existing members."""
        links = self.adjacency.setdefault(node_id, set())
        for other in attach_to:
            if other == node_id or other not in self.adjacency:
                continue
            links.add(other)
            self.adjacency[other].add(node_id)

    def remove_member(self, node_id: int) -> None:
        links = self.adjacency.pop(node_id, set())
        for other in links:
            self.adjacency[other].discard(node_id)


def build_cluster_graph(
    cluster_id: int,
    members,
    rng: np.random.Generator,
    degree: int = 4,
) -> ClusterGraph:
    """A random connected graph over ``members``.

    A random spanning chain over a shuffled member order guarantees
    connectivity; each node then gains random extra links up to roughly
    ``degree``.  This models NRT-derived neighbour sets: arbitrary but
    connected.
    """
    members = list(members)
    graph = ClusterGraph(cluster_id=cluster_id)
    if not members:
        return graph
    order = [members[i] for i in rng.permutation(len(members))]
    graph.adjacency[order[0]] = set()
    for previous, current in zip(order, order[1:]):
        graph.adjacency[current] = set()
        graph.adjacency[current].add(previous)
        graph.adjacency[previous].add(current)
    if degree > 2 and len(members) > 3:
        extra_per_node = max(0, degree - 2)
        for node_id in order:
            for _ in range(extra_per_node):
                other = order[int(rng.integers(0, len(order)))]
                if other != node_id:
                    graph.adjacency[node_id].add(other)
                    graph.adjacency[other].add(node_id)
    return graph


def elect_leader(
    capabilities: dict[int, float], alive: set[int] | None = None
) -> int | None:
    """The election rule: the most capable live node wins.

    Ties break toward the highest node id so all members reach the same
    verdict from the same information.  Returns ``None`` when no candidate
    is live.  (Divergent views — e.g. under partitionings — can elect
    multiple leaders, which the paper explicitly tolerates.)
    """
    candidates = [
        (capacity, node_id)
        for node_id, capacity in capabilities.items()
        if alive is None or node_id in alive
    ]
    if not candidates:
        return None
    _, winner = max(candidates)
    return winner
