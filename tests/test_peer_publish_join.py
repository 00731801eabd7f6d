"""Tests for the publish (Section 6.2) and join/leave (6.3) protocols."""

import math

import pytest

from repro import obs
from repro.overlay import messages as m
from repro.overlay import misbehavior
from repro.overlay.metadata import DCRT, CapabilityTable
from repro.overlay.peer import DocInfo

from tests.helpers import MicroOverlay, build_live_system


class TestPublish:
    def test_publish_joins_serving_cluster(self):
        overlay = MicroOverlay()
        publisher = overlay.add_peer(0)
        member = overlay.add_peer(1)
        overlay.wire_cluster(3, [1], edges=[], category_map={7: 3})
        publisher.dcrt.set(7, 3)
        publisher.nrt.add(3, 1)
        publisher.membership.publish_document(DocInfo(doc_id=50, categories=(7,), size_bytes=10))
        overlay.run()
        # The publisher stored the document and became a cluster member.
        assert publisher.dt.has_document(50)
        assert 3 in publisher.memberships
        # The receiver recorded the publisher in its NRT (step 5).
        assert 0 in member.nrt.nodes_in(3)

    def test_second_publish_same_category_is_silent(self):
        overlay = MicroOverlay()
        publisher = overlay.add_peer(0)
        overlay.add_peer(1)
        overlay.wire_cluster(3, [1], edges=[], category_map={7: 3})
        publisher.dcrt.set(7, 3)
        publisher.nrt.add(3, 1)
        publisher.membership.publish_document(DocInfo(doc_id=50, categories=(7,), size_bytes=10))
        overlay.run()
        sent_before = overlay.network.stats.by_kind.get("publish_request", 0)
        publisher.membership.publish_document(DocInfo(doc_id=51, categories=(7,), size_bytes=10))
        overlay.run()
        sent_after = overlay.network.stats.by_kind.get("publish_request", 0)
        # Step 2: the node already announced its contribution to category 7.
        assert sent_after == sent_before
        assert publisher.dt.has_document(51)

    def test_publish_chases_moved_category(self):
        """Step 5: if the category moved, the reply redirects the publisher
        to the new cluster, repeated until the correct cluster is found."""
        overlay = MicroOverlay()
        publisher = overlay.add_peer(0)
        old_member = overlay.add_peer(1)
        new_member = overlay.add_peer(2)
        overlay.wire_cluster(3, [1], edges=[])
        overlay.wire_cluster(4, [2], edges=[])
        # The category is now served by cluster 4 (move counter 1).
        old_member.dcrt.set(7, 4, move_counter=1)
        old_member.nrt.add(4, 2)
        new_member.dcrt.set(7, 4, move_counter=1)
        # The publisher believes the stale mapping.
        publisher.dcrt.set(7, 3, move_counter=0)
        publisher.nrt.add(3, 1)
        publisher.nrt.add(4, 2)
        publisher.membership.publish_document(DocInfo(doc_id=50, categories=(7,), size_bytes=10))
        overlay.run()
        assert publisher.dcrt.cluster_of(7) == 4
        assert 4 in publisher.memberships
        assert 0 in new_member.nrt.nodes_in(4)

    def test_publish_with_nobody_known_adopts_membership(self):
        overlay = MicroOverlay()
        publisher = overlay.add_peer(0)
        publisher.membership.publish_document(DocInfo(doc_id=50, categories=(7,), size_bytes=10))
        overlay.run()
        # Unknown category defaults to cluster 0; with no known members the
        # publisher adopts the membership locally.
        assert DCRT.DEFAULT_CLUSTER in publisher.memberships

    def test_dummy_publish_free_rider(self):
        overlay = MicroOverlay()
        rider = overlay.add_peer(0)
        member = overlay.add_peer(1)
        overlay.wire_cluster(0, [1], edges=[])
        rider.nrt.add(0, 1)
        rider.membership.dummy_publish()
        overlay.run()
        # Section 6.3: the free rider "will perform a dummy publish, so that
        # it will be added to a cluster and receive further updates".
        assert 0 in rider.memberships
        assert 0 in member.nrt.nodes_in(0)
        assert len(rider.dt) == 0


class TestJoin:
    def test_join_transfers_metadata_and_publishes(self):
        overlay = MicroOverlay()
        bootstrap = overlay.add_peer(0)
        overlay.wire_cluster(2, [0], edges=[], category_map={7: 2})
        bootstrap.dcrt.set(7, 2, move_counter=1)
        joiner = overlay.add_peer(5)
        joiner.store_document(DocInfo(doc_id=60, categories=(7,), size_bytes=10))
        joiner.start_join(bootstrap_id=0)
        overlay.run()
        # Metadata arrived (step 2)...
        assert joiner.dcrt.cluster_of(7) == 2
        # ...and the publish protocol ran for the contributed document.
        assert 2 in joiner.memberships
        assert 5 in bootstrap.nrt.nodes_in(2)

    def test_free_rider_join_does_dummy_publish(self):
        overlay = MicroOverlay()
        bootstrap = overlay.add_peer(0)
        overlay.wire_cluster(0, [0], edges=[])
        joiner = overlay.add_peer(5)
        joiner.start_join(bootstrap_id=0)
        overlay.run()
        assert 0 in joiner.memberships


class TestLeave:
    def test_leave_notifies_cluster_and_unregisters(self):
        overlay = MicroOverlay()
        leaver = overlay.add_peer(0)
        stayer = overlay.add_peer(1)
        overlay.wire_cluster(2, [0, 1], edges=[(0, 1)])
        overlay.give_document(0, 60, [7])
        leaver.membership.start_leave()
        overlay.run()
        # The stayer removed the leaver from its NRT and neighbours.
        assert 0 not in stayer.nrt.nodes_in(2)
        assert 0 not in stayer.cluster_neighbors[2]
        # The notice listed the departing documents.
        assert overlay.hooks.leaves
        _, notice = overlay.hooks.leaves[0]
        assert notice.doc_ids == (60,)
        # The leaver no longer receives traffic.
        assert not overlay.network.is_alive(0)

    def test_leave_clears_capability_knowledge(self):
        overlay = MicroOverlay()
        leaver = overlay.add_peer(0, capacity=9.0)
        stayer = overlay.add_peer(1, capacity=1.0)
        overlay.wire_cluster(2, [0, 1], edges=[(0, 1)])
        stayer.known_capabilities[2][0] = 9.0
        leaver.membership.start_leave()
        overlay.run()
        assert 0 not in stayer.known_capabilities[2]


class TestCapabilityGossipAndElection:
    def test_gossip_spreads_capabilities(self):
        overlay = MicroOverlay()
        for node_id, capacity in ((0, 1.0), (1, 5.0), (2, 3.0)):
            overlay.add_peer(node_id, capacity=capacity)
        overlay.wire_cluster(2, [0, 1, 2], edges=[(0, 1), (1, 2)])
        # Two gossip rounds: 0's info reaches 2 through 1.
        for _ in range(2):
            for peer in overlay.peers.values():
                peer.adaptation.announce_capabilities()
            overlay.run()
        assert overlay.peers[2].known_capabilities[2][0] == 1.0

    def test_everyone_elects_the_most_powerful(self):
        overlay = MicroOverlay()
        for node_id, capacity in ((0, 1.0), (1, 5.0), (2, 3.0)):
            overlay.add_peer(node_id, capacity=capacity)
        overlay.wire_cluster(2, [0, 1, 2], edges=[(0, 1), (1, 2)])
        for _ in range(2):
            for peer in overlay.peers.values():
                peer.adaptation.announce_capabilities()
            overlay.run()
        for peer in overlay.peers.values():
            peer.adaptation.elect_leaders()
            assert peer.believed_leader[2] == 1

    def test_election_with_alive_filter(self):
        overlay = MicroOverlay()
        for node_id, capacity in ((0, 1.0), (1, 5.0)):
            overlay.add_peer(node_id, capacity=capacity)
        overlay.wire_cluster(2, [0, 1], edges=[(0, 1)])
        for _ in range(2):
            for peer in overlay.peers.values():
                peer.adaptation.announce_capabilities()
            overlay.run()
        # Node 1 (the most powerful) died: 0 must elect someone alive.
        overlay.peers[0].adaptation.elect_leaders(alive={0})
        assert overlay.peers[0].believed_leader[2] == 0


@pytest.fixture
def booted():
    """A bootstrapped world and its largest cluster: ``(system, cluster id,
    member A, member B, the table all members share)``."""
    _, system = build_live_system(scale=0.01, seed=31)
    cluster_id, members = max(
        system.topology.members.items(), key=lambda item: len(item[1])
    )
    a, b = (system.peers[node_id] for node_id in sorted(members)[:2])
    shared = a.known_capabilities[cluster_id]
    assert shared is b.known_capabilities[cluster_id]
    return system, cluster_id, a, b, shared


class TestCapabilityCopyOnWrite:
    """Bootstrap gives a cluster's members one read-only capability table;
    a peer's view turns private on the first write that changes it."""

    def test_a_bootstrapped_table_rejects_item_assignment(self, booted):
        _, _, a, _, shared = booted
        assert type(shared) is CapabilityTable and shared.shared
        with pytest.raises(TypeError):
            shared[a.node_id] = 99.0

    def test_an_announce_of_known_values_materialises_nothing(self, booted):
        system, cluster_id, a, b, shared = booted
        a.adaptation.announce_capabilities()
        system.sim.run()
        for node_id in system.topology.members[cluster_id]:
            table = system.peers[node_id].known_capabilities[cluster_id]
            assert table is shared

    @pytest.mark.parametrize("write", ["capability", "leave_notice", "join"])
    def test_a_write_at_one_peer_is_invisible_at_another(self, booted, write):
        system, cluster_id, a, b, shared = booted
        before = dict(shared)
        if write == "capability":
            announce = m.CapabilityAnnounce(cluster_id, ((b.node_id, 99.0), (-5, 1.0)))
            a.adaptation.handle_capability(announce, b.node_id)
            assert a.known_capabilities[cluster_id][b.node_id] == 99.0
            assert a.known_capabilities[cluster_id][-5] == 1.0
        elif write == "leave_notice":
            a.membership.handle_leave_notice(
                m.LeaveNotice(b.node_id, cluster_id, ()), b.node_id
            )
            assert b.node_id not in a.known_capabilities[cluster_id]
        else:
            a.capacity_units += 1.0
            a.join_cluster(cluster_id)
            assert a.known_capabilities[cluster_id][a.node_id] == a.capacity_units
        assert not a.known_capabilities[cluster_id].shared
        assert b.known_capabilities[cluster_id] is shared
        assert dict(shared) == before

    @pytest.mark.parametrize("capacity", [0.0, -1.0, math.nan, math.inf])
    def test_an_announce_of_a_bad_capacity_is_dropped_and_counted(
        self, booted, capacity
    ):
        _, cluster_id, a, b, shared = booted
        before = obs.counter("overlay.rejected_messages").value
        announce = m.CapabilityAnnounce(cluster_id, ((b.node_id, capacity),))
        a.adaptation.handle_capability(announce, b.node_id)
        assert obs.counter("overlay.rejected_messages").value == before + 1
        assert a.known_capabilities[cluster_id] is shared

    def test_power_loss_and_rewire_leave_the_shared_table_intact(self, booted):
        system, cluster_id, a, b, shared = booted
        before = dict(shared)
        a.lose_power()
        assert a.known_capabilities == {}
        a.memberships.add(cluster_id)  # what the journal replay restores
        system.topology.rewire(a)
        assert a.known_capabilities[cluster_id] == {a.node_id: a.capacity_units}
        assert b.known_capabilities[cluster_id] is shared
        assert dict(shared) == before


@pytest.fixture
def two_clusters():
    """A bootstrapped world of two clusters, each with non-members."""
    _, system = build_live_system(scale=0.02, seed=7)
    assert sum(1 for members in system.topology.members.values() if members) == 2
    return system


class TestForeignCapabilityTables:
    """Every peer holds every cluster's shared capability table, foreign
    ones too: a requester weighs the members it dispatches to by it."""

    def test_every_peer_holds_every_cluster_table_once(self, two_clusters):
        system = two_clusters
        for cluster_id, members in system.topology.members.items():
            if not members:
                continue
            tables = {
                id(peer.known_capabilities[cluster_id])
                for peer in system.peers.values()
            }
            assert tables == {id(system.topology.capabilities[cluster_id])}

    def test_a_leave_notice_privatises_a_foreign_table_it_names(self, two_clusters):
        system = two_clusters
        outsider, cluster_id = next(
            (peer, cluster_id)
            for cluster_id, members in system.topology.members.items()
            for peer in system.peers.values()
            if members and cluster_id not in peer.memberships
        )
        shared = system.topology.capabilities[cluster_id]
        leaver = min(system.topology.members[cluster_id])
        outsider.membership.handle_leave_notice(
            m.LeaveNotice(leaver, cluster_id, ()), leaver
        )
        assert leaver not in outsider.known_capabilities[cluster_id]
        assert not outsider.known_capabilities[cluster_id].shared
        assert leaver in shared
        for peer in system.peers.values():
            if peer is not outsider:
                assert peer.known_capabilities[cluster_id] is shared

    def test_rewire_hands_back_the_foreign_tables(self, two_clusters):
        system = two_clusters
        peer = next(p for p in system.peers.values() if len(p.memberships) == 1)
        (own,) = peer.memberships
        peer.lose_power()
        peer.memberships.add(own)  # what the journal replay restores
        system.topology.rewire(peer)
        assert peer.known_capabilities[own] == {peer.node_id: peer.capacity_units}
        for cluster_id, table in system.topology.capabilities.items():
            if cluster_id != own:
                assert peer.known_capabilities[cluster_id] is table


def test_integrity_audit_reads_ever_stored_from_holders_and_drops():
    _, system = build_live_system(scale=0.01, seed=31)
    ledger = system.ledger
    peer = next(peer for peer in system.peers.values() if len(peer.docs) > 1)
    held, dropped = list(peer.docs)[:2]
    misbehavior.arm(system, peer.node_id, "stale_gossip")
    audit = ledger.audit
    peer.drop_document(dropped)
    never = next(d for d in system.instance.documents if d not in peer.docs and d != dropped)
    assert audit.ever_stored(peer.node_id, dropped)
    assert not audit.ever_stored(peer.node_id, never)

    def respond(doc_id):
        ledger.on_query_response(
            peer, m.QueryResponse(10**9, (doc_id,), peer.node_id, hops=1)
        )

    respond(held)
    respond(dropped)  # held when the audit began, dropped since: still honest
    assert audit.violations == []
    respond(never)
    assert len(audit.violations) == 1
    assert f"claiming doc {never}" in audit.violations[0]
