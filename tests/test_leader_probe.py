"""Tests for leader liveness probing and failover (Section 6.1.1)."""

from tests.helpers import MicroOverlay


def _cluster_with_leader():
    """Three nodes; node 2 (capacity 9) is everyone's believed leader."""
    overlay = MicroOverlay()
    for node_id, capacity in ((0, 1.0), (1, 3.0), (2, 9.0)):
        overlay.add_peer(node_id, capacity=capacity)
    overlay.wire_cluster(4, [0, 1, 2], edges=[(0, 1), (1, 2), (0, 2)])
    for _ in range(2):
        for peer in overlay.peers.values():
            peer.adaptation.announce_capabilities()
        overlay.run()
    for peer in overlay.peers.values():
        peer.adaptation.elect_leaders()
    return overlay


class TestLeaderProbe:
    def test_alive_leader_confirms(self):
        overlay = _cluster_with_leader()
        assert overlay.peers[0].believed_leader[4] == 2
        overlay.peers[0].adaptation.probe_leader(4, round_id=1)
        overlay.run()
        # Confirmed: belief unchanged, no pending probes.
        assert overlay.peers[0].believed_leader[4] == 2
        assert not overlay.peers[0].adaptation._pending_probes

    def test_dead_leader_triggers_failover(self):
        overlay = _cluster_with_leader()
        overlay.network.crash(2)
        overlay.peers[0].adaptation.probe_leader(4, round_id=1)
        overlay.run()
        # The next most capable node (1, capacity 3) takes over.
        assert overlay.peers[0].believed_leader[4] == 1

    def test_node_that_does_not_think_it_leads_stays_silent(self):
        overlay = _cluster_with_leader()
        # Node 0 wrongly believes node 1 is the leader; node 1 does not
        # believe it leads, so it will not confirm — node 0 fails over.
        overlay.peers[0].believed_leader[4] = 1
        overlay.peers[0].adaptation.probe_leader(4, round_id=2)
        overlay.run()
        # Failover excludes node 1, electing the true top node 2.
        assert overlay.peers[0].believed_leader[4] == 2

    def test_self_leader_needs_no_probe(self):
        overlay = _cluster_with_leader()
        leader = overlay.peers[2]
        sent_before = overlay.network.stats.messages_sent
        leader.adaptation.probe_leader(4, round_id=3)
        overlay.run()
        assert overlay.network.stats.messages_sent == sent_before

    def test_probe_rounds_independent(self):
        overlay = _cluster_with_leader()
        overlay.peers[0].adaptation.probe_leader(4, round_id=1)
        overlay.peers[0].adaptation.probe_leader(4, round_id=2)
        overlay.run()
        assert not overlay.peers[0].adaptation._pending_probes
        assert overlay.peers[0].believed_leader[4] == 2
