"""Failure injection: network partitions during monitoring and gossip.

Section 6.1.2: "failures and faults may result in the physical
partitioning of clusters, resulting in turn in the creation of multiple
trees (sub-clusters) per cluster, which will participate independently in
the adaptation process" — and reconcile when the partition heals.
"""

from tests.helpers import MicroOverlay


def _partitioned_cluster():
    """Six nodes in one cluster; a partition splits {0,1,2} from {3,4,5}."""
    overlay = MicroOverlay()
    for node_id in range(6):
        overlay.add_peer(node_id, capacity=1.0 + node_id)
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    overlay.wire_cluster(4, range(6), edges=edges, category_map={7: 4})
    for node_id in range(6):
        overlay.peers[node_id].hit_counters[7] = 10 * (node_id + 1)
    overlay.network.set_partition([0, 1, 2], 1)
    overlay.network.set_partition([3, 4, 5], 2)
    return overlay


class TestPartitionedMonitoring:
    def test_subcluster_trees_complete_independently(self):
        overlay = _partitioned_cluster()
        # One "leader" per side starts monitoring; cross-partition requests
        # are lost and the timeout closes each side's tree.
        overlay.peers[0].adaptation.start_monitoring(cluster_id=4, round_id=1)
        overlay.peers[5].adaptation.start_monitoring(cluster_id=4, round_id=1)
        overlay.run()
        results = {
            leader: overlay.peers[leader].adaptation.monitoring_result(4, 1)[0]
            for leader in (0, 5)
        }
        # Side A: nodes 0,1,2 -> 10+20+30; side B: 3,4,5 -> 40+50+60.
        assert results[0] == {7: 60}
        assert results[5] == {7: 150}

    def test_healed_partition_monitors_whole_cluster(self):
        overlay = _partitioned_cluster()
        overlay.network.heal_partitions()
        overlay.peers[0].adaptation.start_monitoring(cluster_id=4, round_id=2)
        overlay.run()
        assert overlay.peers[0].adaptation.monitoring_result(4, 2)[0] == {7: 210}

    def test_gossip_reconciles_after_heal(self):
        overlay = _partitioned_cluster()
        # Side A learns of a category move while partitioned.
        from repro.overlay.metadata import DCRTEntry

        for node_id in (0, 1, 2):
            overlay.peers[node_id].dcrt.merge(7, DCRTEntry(9, move_counter=3))
        # While split, side B still believes the old mapping.
        for _ in range(3):
            for peer in overlay.peers.values():
                peer.membership.gossip_once()
            overlay.run()
        assert overlay.peers[5].dcrt.cluster_of(7) == 4
        # Heal; epidemic exchange reconciles via the move counter.
        overlay.network.heal_partitions()
        for _ in range(8):
            for peer in overlay.peers.values():
                peer.membership.gossip_once()
            overlay.run()
        for node_id in range(6):
            assert overlay.peers[node_id].dcrt.cluster_of(7) == 9, node_id

    def test_elections_diverge_per_partition(self):
        overlay = _partitioned_cluster()
        for _ in range(4):
            for peer in overlay.peers.values():
                peer.adaptation.announce_capabilities()
            overlay.run()
        # Capability knowledge bootstrapped at wire time covers everyone,
        # so restrict the election to what each side can actually reach.
        side_a, side_b = {0, 1, 2}, {3, 4, 5}
        for node_id in side_a:
            overlay.peers[node_id].adaptation.elect_leaders(alive=side_a)
        for node_id in side_b:
            overlay.peers[node_id].adaptation.elect_leaders(alive=side_b)
        # Two leaders exist simultaneously — the paper says "this poses no
        # problem"; each side picks its most capable reachable node.
        assert overlay.peers[0].believed_leader[4] == 2
        assert overlay.peers[5].believed_leader[4] == 5
