"""Tests for the Section 3.3 query processing at the peer level."""

import pytest

from repro.overlay.metadata import DCRTEntry

from tests.helpers import MicroOverlay, patch_method


def _three_node_cluster(category_map=None):
    """Peers 0-1-2 in cluster 0, a chain 0-1-2."""
    overlay = MicroOverlay()
    for node_id in (0, 1, 2):
        overlay.add_peer(node_id)
    overlay.wire_cluster(
        0, [0, 1, 2], edges=[(0, 1), (1, 2)],
        category_map=category_map or {7: 0},
    )
    return overlay


class TestCategoryQueries:
    def test_direct_hit_one_hop(self):
        overlay = _three_node_cluster()
        overlay.give_document(1, 100, [7])
        # Requester 0 asks; NRT random choice may pick any member, but
        # member 1 is the only one with content; to pin the path, query
        # node 1 directly via its handler by making 0 know only node 1.
        requester = overlay.peers[0]
        requester.nrt.remove_node(0)
        requester.nrt.remove_node(2)
        requester.start_query(query_id=1, category_id=7, m_results=1)
        overlay.run()
        assert len(overlay.hooks.responses) == 1
        node_id, response = overlay.hooks.responses[0]
        assert node_id == 0
        assert response.doc_ids == (100,)
        assert response.hops == 1

    def test_forwarding_reaches_content(self):
        overlay = _three_node_cluster()
        overlay.give_document(2, 100, [7])
        requester = overlay.peers[0]
        # Force first hop to node 0 itself (no content) -> forwards along
        # the chain until node 2 answers.
        requester.nrt.remove_node(1)
        requester.nrt.remove_node(2)
        requester.start_query(query_id=1, category_id=7, m_results=1)
        overlay.run()
        assert len(overlay.hooks.responses) == 1
        _, response = overlay.hooks.responses[0]
        assert response.responder_id == 2
        assert response.hops == 3  # 0 (1) -> 1 (2) -> 2 (3)

    @pytest.mark.parametrize("m_results", [1, 3, 8])
    def test_a_member_serves_the_first_remaining_of_its_category(self, m_results):
        # Node 1 holds five documents of category 7 among others; it reads
        # only as many as the query still wants, and answers with the same
        # prefix a full scan would give.
        overlay = _three_node_cluster()
        for doc_id in range(100, 110):
            overlay.give_document(1, doc_id, [7] if doc_id % 2 else [8])
        requester = overlay.peers[0]
        requester.nrt.remove_node(0)
        requester.nrt.remove_node(2)
        requester.start_query(query_id=1, category_id=7, m_results=m_results)
        overlay.run()
        [response] = [r for _, r in overlay.hooks.responses if r.responder_id == 1]
        assert response.doc_ids == (101, 103, 105, 107, 109)[:m_results]
        assert [info.doc_id for info in response.doc_infos] == list(response.doc_ids)

    @pytest.mark.parametrize("remaining", [0, -3])
    def test_a_query_wanting_no_result_is_rejected_on_receipt(
        self, remaining, monkeypatch
    ):
        # No honest sender makes one; at a holder it must not be served,
        # forwarded, remembered, or parked (which would pull the group).
        from repro import obs
        from repro.overlay import messages as m

        overlay = _three_node_cluster()
        overlay.give_document(1, 100, [7])
        holder = overlay.peers[1]
        parked = []
        patch_method(
            monkeypatch, holder.adaptation, "park",
            lambda query: parked.append(query) or True,
        )
        sent = []
        patch_method(
            monkeypatch, holder, "_send", lambda *args, **kwargs: sent.append(args)
        )
        rejected = obs.counter("overlay.rejected_messages")
        before = rejected.value
        query = m.QueryMessage(
            query_id=1, requester_id=0, category_id=7, remaining=remaining,
            hops=1, target_cluster=0,
        )
        holder.queries.handle_query(query, 0)
        overlay.run()
        assert rejected.value - before == 1
        assert parked == [] and sent == [] and overlay.hooks.responses == []
        assert holder.queries.seen_query_count() == 0
        assert holder.requests_served == 0

    def test_m_results_collected_from_several_nodes(self):
        overlay = _three_node_cluster()
        overlay.give_document(0, 100, [7])
        overlay.give_document(1, 101, [7])
        overlay.give_document(2, 102, [7])
        requester = overlay.peers[0]
        requester.nrt.remove_node(1)
        requester.nrt.remove_node(2)
        requester.start_query(query_id=1, category_id=7, m_results=3)
        overlay.run()
        served = [d for _, r in overlay.hooks.responses for d in r.doc_ids]
        assert set(served) == {100, 101, 102}

    def test_loop_detection_prevents_duplicates(self):
        overlay = MicroOverlay()
        for node_id in (0, 1, 2):
            overlay.add_peer(node_id)
        # Triangle: loops exist; each node must serve at most once.
        overlay.wire_cluster(
            0, [0, 1, 2], edges=[(0, 1), (1, 2), (0, 2)], category_map={7: 0}
        )
        for node_id in (0, 1, 2):
            overlay.give_document(node_id, 100 + node_id, [7])
        requester = overlay.peers[0]
        requester.nrt.remove_node(1)
        requester.nrt.remove_node(2)
        requester.start_query(query_id=1, category_id=7, m_results=10)
        overlay.run()
        responders = [r.responder_id for _, r in overlay.hooks.responses]
        assert sorted(responders) == sorted(set(responders))

    def test_query_fails_without_known_member(self):
        overlay = MicroOverlay()
        peer = overlay.add_peer(0)
        peer.dcrt.set(7, 3)  # cluster 3, nobody known there
        peer.start_query(query_id=9, category_id=7, m_results=1)
        overlay.run()
        assert overlay.hooks.failures == [(0, 9, "no-known-member")]

    def test_served_load_and_hit_counters(self):
        overlay = _three_node_cluster()
        overlay.give_document(1, 100, [7])
        requester = overlay.peers[0]
        requester.nrt.remove_node(0)
        requester.nrt.remove_node(2)
        requester.start_query(query_id=1, category_id=7, m_results=1)
        overlay.run()
        assert overlay.peers[1].requests_served == 1
        assert overlay.peers[1].hit_counters == {7: 1}

    def test_rejects_bad_m(self):
        overlay = _three_node_cluster()
        with pytest.raises(ValueError):
            overlay.peers[0].start_query(query_id=1, category_id=7, m_results=0)


class TestDocTargetedQueries:
    def test_served_by_holder_via_metadata(self):
        overlay = _three_node_cluster()
        overlay.give_document(2, 100, [7])
        requester = overlay.peers[0]
        requester.nrt.remove_node(1)
        requester.nrt.remove_node(2)  # first hop lands on node 0 (no doc)
        requester.start_query(
            query_id=1, category_id=7, m_results=1, target_doc_id=100
        )
        overlay.run()
        assert len(overlay.hooks.responses) == 1
        _, response = overlay.hooks.responses[0]
        assert response.responder_id == 2
        assert response.doc_ids == (100,)
        assert response.hops == 2  # first node + metadata redirect

    def test_local_hit_single_hop(self):
        overlay = _three_node_cluster()
        overlay.give_document(1, 100, [7])
        requester = overlay.peers[0]
        requester.nrt.remove_node(0)
        requester.nrt.remove_node(2)
        requester.start_query(
            query_id=1, category_id=7, m_results=1, target_doc_id=100
        )
        overlay.run()
        _, response = overlay.hooks.responses[0]
        assert response.hops == 1

    def test_unknown_document_gets_no_answer(self):
        overlay = _three_node_cluster()
        requester = overlay.peers[0]
        requester.start_query(
            query_id=1, category_id=7, m_results=1, target_doc_id=424242
        )
        overlay.run()
        assert overlay.hooks.responses == []


class TestMovedCategoryRedirect:
    def test_stale_requester_is_redirected_and_corrected(self):
        """Lazy-rebalancing steps 3-4: a node of the old cluster forwards
        to the new cluster, and the response piggybacks the correction."""
        overlay = MicroOverlay()
        for node_id in (0, 1, 2):
            overlay.add_peer(node_id)
        # Node 1 in (old) cluster 0, node 2 in cluster 1.
        overlay.wire_cluster(0, [1], edges=[])
        overlay.wire_cluster(1, [2], edges=[])
        overlay.give_document(2, 100, [7])
        # Node 1 knows the category moved to cluster 1 (move counter 1)
        # and knows node 2 as a member of cluster 1.
        overlay.peers[1].dcrt.set(7, 1, move_counter=1)
        overlay.peers[1].nrt.add(1, 2)
        overlay.peers[2].dcrt.set(7, 1, move_counter=1)
        # Requester 0 still believes cluster 0 serves category 7.
        requester = overlay.peers[0]
        requester.dcrt.set(7, 0, move_counter=0)
        requester.nrt.add(0, 1)
        requester.start_query(query_id=1, category_id=7, m_results=1)
        overlay.run()
        assert len(overlay.hooks.responses) == 1
        _, response = overlay.hooks.responses[0]
        assert response.responder_id == 2
        assert response.hops == 2
        # The piggybacked DCRT update corrected the requester's mapping.
        assert requester.dcrt.cluster_of(7) == 1
        assert requester.dcrt.entry(7).move_counter == 1

    def test_stale_update_does_not_roll_back(self):
        overlay = MicroOverlay()
        peer = overlay.add_peer(0)
        peer.dcrt.set(7, 2, move_counter=5)
        # A very late response carrying an older mapping must be ignored.
        from repro.overlay import messages as m
        from repro.sim.network import Message

        response = m.QueryResponse(
            query_id=1,
            doc_ids=(1,),
            responder_id=9,
            hops=1,
            dcrt_updates=((7, DCRTEntry(0, move_counter=2)),),
        )
        peer.handle_message(
            Message(src=9, dst=0, kind="query_response", payload=response)
        )
        assert peer.dcrt.cluster_of(7) == 2
        assert peer.dcrt.entry(7).move_counter == 5


class TestDispatchTable:
    def _kinds_sent(self):
        """Every message kind some sender in ``src/repro`` names."""
        import ast
        from pathlib import Path

        import repro

        kinds = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("_send", "send", "transmit")
                ):
                    kinds.update(
                        arg.value
                        for arg in node.args[:4]
                        if isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                    )
        return kinds

    def test_registered_kinds_are_exactly_the_kinds_sent(self):
        from repro.content.chunks import ContentConfig
        from repro.overlay import messages as m
        from repro.overlay.peer import PeerConfig
        from repro.overlay.service import ServiceConfig
        from repro.reliability import ReliabilityConfig

        overlay = MicroOverlay()
        full = overlay.add_peer(0, config=PeerConfig(
            reliability=ReliabilityConfig(enabled=True),
            service=ServiceConfig(enabled=True),
            content=ContentConfig(enabled=True),
        ))
        table = {kind: entry[0] for kind, entry in full._dispatch.items()}
        assert set(table) == self._kinds_sent()
        assert set(table.values()) <= set(m.WIRE_TYPES.values())
        # Exactly one owner per kind: the components' registrations
        # partition the table, and a second claim is refused.
        owned = [
            kind
            for component in full.components
            if hasattr(component, "registrations")
            for kind in component.registrations()
        ]
        assert sorted(owned) == sorted(table)
        with pytest.raises(ValueError):
            full.register(
                "query", m.QueryMessage, full.queries, lambda *args: None
            )
        # A subsystem that is off is absent from the table.
        bare = overlay.add_peer(1)._dispatch
        assert set(table) - set(bare) == set(full.content_state.registrations())

    def test_a_peer_needs_an_rng(self):
        from repro.overlay.peer import Peer

        overlay = MicroOverlay()
        with pytest.raises(TypeError):
            Peer(0, 1.0, transport=overlay.network)

    def test_a_peer_shares_its_worlds_table_until_it_takes_over_a_kind(self):
        from repro.overlay import messages as m

        overlay = MicroOverlay()
        first, second, third = (overlay.add_peer(n) for n in range(3))
        shared = first._dispatch
        assert second._dispatch is shared and third._dispatch is shared
        # Another world, even of the same classes, has a table of its own.
        assert MicroOverlay().add_peer(0)._dispatch is not shared

        def quiet(queries, query, src):
            pass

        with pytest.raises(ValueError):
            second.register("query", m.QueryMessage, second.queries, quiet)
        with pytest.raises(ValueError):
            second.register("query", m.QueryMessage, first.queries, quiet,
                            replace=True)
        assert second._dispatch is shared
        second.register("query", m.QueryMessage, second.queries, quiet,
                        replace=True)
        assert second._dispatch is not shared
        assert second._dispatch["query"][2] is quiet
        assert shared["query"][2] is not quiet
        assert first._dispatch is shared and third._dispatch is shared
        # A power loss rebuilds the components in place: the entry stays.
        second.lose_power()
        assert second._dispatch["query"][2] is quiet

    def test_frame_with_unknown_kind_or_wrong_payload_is_rejected_first(self):
        from repro import obs
        from repro.overlay import messages as m
        from repro.sim.network import Message

        overlay = MicroOverlay()
        peer = overlay.add_peer(0)
        replies = []
        overlay.network.register(9, replies.append)
        for _ in range(peer.config.reliability.suspicion_threshold):
            peer.detector.note_missed(9)
        rejected = obs.counter("overlay.rejected_messages")
        before = rejected.value
        ping = m.Ping(probe_id=1, prober_id=9)
        for kind in ("query", "no_such_kind"):
            peer.handle_message(
                Message(src=9, dst=0, kind=kind, payload=ping, delivery_id=5)
            )
        overlay.run()
        assert rejected.value - before == 2
        assert replies == []  # no ack, no pong
        assert 9 in peer.detector.suspects  # no liveness evidence
        assert peer.reliable_application_counts() == {}
        genuine = Message(src=9, dst=0, kind="ping", payload=ping, delivery_id=5)
        assert not peer.channel.observe(genuine)  # id 5 never entered dedup
