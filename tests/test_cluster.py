"""Tests for repro.overlay.cluster — graphs and leader election."""

from collections import deque

import numpy as np

from repro.overlay.cluster import ClusterGraph, build_cluster_graph, elect_leader


def is_connected(graph: ClusterGraph, alive: set[int] | None = None) -> bool:
    """Breadth-first connectivity over (optionally only the live subset
    of) the graph's members."""
    nodes = graph.members if alive is None else graph.members & alive
    if not nodes:
        return True
    start = next(iter(nodes))
    seen, frontier = {start}, deque([start])
    while frontier:
        for neighbor in graph.adjacency[frontier.popleft()]:
            if neighbor in nodes and neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return seen == nodes


class TestClusterGraph:
    def test_build_is_connected(self):
        rng = np.random.default_rng(0)
        for size in (1, 2, 5, 50):
            graph = build_cluster_graph(0, range(size), rng, degree=4)
            assert is_connected(graph)
            assert graph.members == set(range(size))

    def test_no_self_loops(self):
        graph = build_cluster_graph(0, range(30), np.random.default_rng(1))
        for node_id, neighbors in graph.adjacency.items():
            assert node_id not in neighbors

    def test_symmetry(self):
        graph = build_cluster_graph(0, range(30), np.random.default_rng(2))
        for node_id, neighbors in graph.adjacency.items():
            for neighbor in neighbors:
                assert node_id in graph.adjacency[neighbor]

    def test_empty(self):
        graph = build_cluster_graph(0, [], np.random.default_rng(3))
        assert graph.members == set()
        assert is_connected(graph)

    def test_add_member(self):
        graph = build_cluster_graph(0, range(5), np.random.default_rng(4))
        graph.add_member(99, attach_to=[0, 1])
        assert 99 in graph.members
        assert graph.neighbors(99) == {0, 1}
        assert 99 in graph.neighbors(0)

    def test_add_member_ignores_unknown_attach(self):
        graph = build_cluster_graph(0, range(3), np.random.default_rng(5))
        graph.add_member(99, attach_to=[12345])
        assert graph.neighbors(99) == set()

    def test_remove_member(self):
        graph = build_cluster_graph(0, range(5), np.random.default_rng(6))
        neighbors = set(graph.neighbors(2))
        graph.remove_member(2)
        assert 2 not in graph.members
        for other in neighbors:
            assert 2 not in graph.neighbors(other)

    def test_connectivity_with_alive_subset(self):
        graph = ClusterGraph(cluster_id=0)
        graph.adjacency = {1: {2}, 2: {1, 3}, 3: {2}, 4: set()}
        assert not is_connected(graph)
        assert is_connected(graph, alive={1, 2, 3})


class TestElection:
    def test_most_capable_wins(self):
        # Section 6.1.1: "the most powerful node in each cluster is chosen".
        assert elect_leader({1: 2.0, 2: 5.0, 3: 1.0}) == 2

    def test_tie_breaks_to_highest_id(self):
        assert elect_leader({1: 5.0, 2: 5.0}) == 2

    def test_respects_alive_filter(self):
        assert elect_leader({1: 2.0, 2: 5.0}, alive={1}) == 1

    def test_no_candidates(self):
        assert elect_leader({}, alive=set()) is None
        assert elect_leader({1: 1.0}, alive=set()) is None
