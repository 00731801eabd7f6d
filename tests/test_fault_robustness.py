"""Fault robustness: lossy links, dead clusters, stale routing tables."""

import numpy as np
import pytest

from repro.metrics.response import summarize_responses
from repro.model.workload import make_query_workload
from repro.overlay.epidemic import dcrt_convergence
from repro.overlay.metadata import DCRTEntry
from repro.sim.engine import Simulator
from repro.sim.network import Network

from tests.helpers import MicroOverlay, build_live_system


class TestLossyGossip:
    def test_gossip_converges_despite_drops(self):
        """Anti-entropy is idempotent, so a lossy network only slows it."""
        overlay = MicroOverlay()
        overlay.network.rng = np.random.default_rng(0)
        overlay.network.set_drop_probability(0.3)
        for node_id in range(8):
            overlay.add_peer(node_id)
        edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (2, 6)]
        overlay.wire_cluster(3, range(8), edges=edges)
        # Node 0 learns a fresh mapping; gossip must spread it to all.
        overlay.peers[0].dcrt.set(7, 5, move_counter=2)
        for _ in range(40):
            for peer in overlay.peers.values():
                peer.membership.gossip_once()
            overlay.run()
        for node_id in range(8):
            assert overlay.peers[node_id].dcrt.cluster_of(7) == 5, node_id


class TestDeadClusterQueries:
    def test_query_fails_cleanly_when_cluster_dies(self):
        overlay = MicroOverlay()
        requester = overlay.add_peer(0)
        holder = overlay.add_peer(1)
        overlay.wire_cluster(2, [1], edges=[], category_map={7: 2})
        overlay.give_document(1, 100, [7])
        requester.dcrt.set(7, 2)
        requester.nrt.add(2, 1)
        overlay.network.crash(1)
        requester.start_query(1, 7, 1, target_doc_id=100)
        overlay.run()
        # No crash, no answer: the message was dropped silently (the
        # paper's "if no live node exists, the query will fail" case is
        # the NRT-empty variant; a dead-but-known node is a network loss).
        assert overlay.hooks.responses == []

    def test_whole_cluster_crash_bounded_failure(self):
        instance, system = build_live_system(scale=0.05, seed=91)
        # Kill every *exclusive* member of the smallest cluster (members
        # shared with other clusters stay up, as they would in practice).
        sizes = {
            cluster_id: len(system.peers_in_cluster(cluster_id))
            for cluster_id in range(system.assignment.n_clusters)
            if system.peers_in_cluster(cluster_id)
        }
        victim_cluster = min(sizes, key=sizes.get)
        victims = [
            peer.node_id
            for peer in system.peers_in_cluster(victim_cluster)
            if peer.memberships == {victim_cluster}
        ]
        for node_id in victims:
            system.crash_node(node_id)
        outcomes = system.run_workload(make_query_workload(instance, 1500, seed=92))
        stats = summarize_responses(outcomes)
        # The rest of the system keeps serving; losses stay bounded by the
        # victim cluster's (replicated) share of the content.
        assert stats.n_succeeded > 0
        assert stats.success_rate > 0.5


class TestStaleRouting:
    def test_very_stale_dcrt_still_resolves_through_redirects(self):
        """A node whose DCRT is several moves behind reaches content via
        the chain of redirects plus piggybacked corrections."""
        overlay = MicroOverlay()
        requester = overlay.add_peer(0)
        old_member = overlay.add_peer(1)
        mid_member = overlay.add_peer(2)
        new_member = overlay.add_peer(3)
        overlay.wire_cluster(1, [1], edges=[])
        overlay.wire_cluster(2, [2], edges=[])
        overlay.wire_cluster(3, [3], edges=[])
        overlay.give_document(3, 100, [7])
        # History: category 7 moved 1 -> 2 -> 3.
        requester.dcrt.set(7, 1, move_counter=0)
        old_member.dcrt.set(7, 2, move_counter=1)   # knows the first move
        mid_member.dcrt.set(7, 3, move_counter=2)   # knows the second
        new_member.dcrt.set(7, 3, move_counter=2)
        requester.nrt.add(1, 1)
        old_member.nrt.add(2, 2)
        mid_member.nrt.add(3, 3)
        requester.start_query(1, 7, 1, target_doc_id=100)
        overlay.run()
        assert len(overlay.hooks.responses) == 1
        _, response = overlay.hooks.responses[0]
        assert response.responder_id == 3
        assert response.hops == 3
        # The requester ends up with the freshest mapping.
        assert requester.dcrt.cluster_of(7) == 3
        assert requester.dcrt.entry(7).move_counter == 2


class TestNetworkChaos:
    def test_duplicate_registration_overwrites_handler(self):
        sim = Simulator()
        network = Network(sim)
        seen = []
        network.register(1, lambda msg: seen.append("a"))
        network.register(1, lambda msg: seen.append("b"))
        network.transmit(0, 1, "x", None)
        sim.run()
        assert seen == ["b"]

    def test_unregister_then_send(self):
        sim = Simulator()
        network = Network(sim)
        network.register(1, lambda msg: None)
        network.unregister(1)
        network.transmit(0, 1, "x", None)
        sim.run()
        assert network.stats.messages_dropped == 1
