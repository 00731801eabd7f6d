"""Tests for the Phase-1 monitoring tree (Section 6.1.2)."""

import pytest

from repro.overlay.peer import PeerConfig

from tests.helpers import MicroOverlay


def _cluster_with_hits(edges, hits_per_node, category_map=None):
    """Build a cluster over nodes 0..n-1 with given hit counters."""
    overlay = MicroOverlay()
    node_ids = sorted(hits_per_node)
    for node_id in node_ids:
        overlay.add_peer(node_id)
    overlay.wire_cluster(
        4, node_ids, edges=edges, category_map=category_map or {7: 4}
    )
    for node_id, hits in hits_per_node.items():
        for category_id, count in hits.items():
            overlay.peers[node_id].hit_counters[category_id] = count
    return overlay


def _result(overlay, round_id=1):
    """The finished aggregate node 0 holds as the round's root."""
    return overlay.peers[0].adaptation.monitoring_result(4, round_id)


class TestHitCountAggregation:
    def test_chain_aggregates_all_counters(self):
        overlay = _cluster_with_hits(
            edges=[(0, 1), (1, 2)],
            hits_per_node={0: {7: 5}, 1: {7: 3}, 2: {7: 2}},
        )
        overlay.peers[0].adaptation.start_monitoring(cluster_id=4, round_id=1)
        overlay.run()
        counts, _w, subtree = _result(overlay)
        assert counts == {7: 10}
        assert subtree == 3

    def test_only_the_root_holds_the_result(self):
        overlay = _cluster_with_hits(
            edges=[(0, 1), (1, 2)],
            hits_per_node={0: {7: 5}, 1: {7: 3}, 2: {7: 2}},
        )
        overlay.peers[0].adaptation.start_monitoring(cluster_id=4, round_id=1)
        overlay.run()
        # Node 1 relayed the round (and finished its subtree); it rooted
        # nothing, and no peer holds a round that never ran.
        assert overlay.peers[1].adaptation.monitoring_result(4, 1) == ({}, {}, 0)
        assert overlay.peers[0].adaptation.monitoring_result(4, 2) == ({}, {}, 0)

    def test_cycle_counts_each_node_once(self):
        # Triangle: duplicate requests answered with empty "already
        # counted" replies, so no double counting.
        overlay = _cluster_with_hits(
            edges=[(0, 1), (1, 2), (0, 2)],
            hits_per_node={0: {7: 5}, 1: {7: 3}, 2: {7: 2}},
        )
        overlay.peers[0].adaptation.start_monitoring(cluster_id=4, round_id=1)
        overlay.run()
        counts, _w, subtree = _result(overlay)
        assert counts == {7: 10}
        assert subtree == 3

    def test_multiple_categories(self):
        overlay = _cluster_with_hits(
            edges=[(0, 1)],
            hits_per_node={0: {7: 1, 8: 2}, 1: {7: 4, 8: 8}},
            category_map={7: 4, 8: 4},
        )
        overlay.peers[0].adaptation.start_monitoring(cluster_id=4, round_id=1)
        overlay.run()
        counts, _w, _ = _result(overlay)
        assert counts == {7: 5, 8: 10}

    def test_only_own_cluster_categories_counted(self):
        # Node 1's hits on category 9 (another cluster) must not pollute
        # cluster 4's report.
        overlay = _cluster_with_hits(
            edges=[(0, 1)],
            hits_per_node={0: {7: 1}, 1: {7: 2, 9: 50}},
            category_map={7: 4, 9: 0},
        )
        overlay.peers[0].adaptation.start_monitoring(cluster_id=4, round_id=1)
        overlay.run()
        counts, _w, _ = _result(overlay)
        assert counts == {7: 3}

    def test_singleton_cluster(self):
        overlay = _cluster_with_hits(edges=[], hits_per_node={0: {7: 5}})
        overlay.peers[0].adaptation.start_monitoring(cluster_id=4, round_id=1)
        overlay.run()
        counts, _w, subtree = _result(overlay)
        assert counts == {7: 5}
        assert subtree == 1

    def test_weights_follow_stored_docs(self):
        overlay = _cluster_with_hits(
            edges=[(0, 1)], hits_per_node={0: {}, 1: {}}
        )
        overlay.give_document(0, 100, [7])
        overlay.give_document(0, 101, [7])
        overlay.peers[0].adaptation.start_monitoring(cluster_id=4, round_id=1)
        overlay.run()
        _counts, weights, _ = _result(overlay)
        # Node 0 holds 2 docs of category 7, all of its stored content ->
        # its whole capacity (1.0) is attributed to category 7.
        assert weights[7] == pytest.approx(1.0)

    def test_dead_child_handled_by_timeout(self):
        overlay = _cluster_with_hits(
            edges=[(0, 1), (1, 2)],
            hits_per_node={0: {7: 5}, 1: {7: 3}, 2: {7: 2}},
        )
        overlay.network.crash(2)
        overlay.peers[0].adaptation.start_monitoring(cluster_id=4, round_id=1)
        overlay.run()
        # The run completes (timeout fires) with the live nodes' counts.
        counts, _w, subtree = _result(overlay)
        assert counts == {7: 8}
        assert subtree == 2

    def test_two_rounds_are_independent(self):
        overlay = _cluster_with_hits(
            edges=[(0, 1)], hits_per_node={0: {7: 5}, 1: {7: 3}}
        )
        overlay.peers[0].adaptation.start_monitoring(cluster_id=4, round_id=1)
        overlay.run()
        overlay.peers[1].hit_counters[7] = 10
        overlay.peers[0].adaptation.start_monitoring(cluster_id=4, round_id=2)
        overlay.run()
        assert _result(overlay, round_id=1)[0] == {7: 8}
        assert _result(overlay, round_id=2)[0] == {7: 15}

    def test_non_member_cannot_start(self):
        overlay = MicroOverlay()
        peer = overlay.add_peer(0)
        with pytest.raises(ValueError):
            peer.adaptation.start_monitoring(cluster_id=9, round_id=1)
