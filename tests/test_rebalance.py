"""Tests for the lazy rebalancing protocol (Section 6.1.2) and cost model."""

import numpy as np
import pytest

from repro import obs
from repro.durability import MemoryStore, PeerJournal
from repro.overlay import messages as m
from repro.overlay.adaptation_protocol import _GROUP_DEADLINE, _GROUP_TRIES
from repro.overlay.peer import PeerConfig
from repro.overlay.rebalance import pair_nodes, rebalance_cost
from repro.reliability import ReliabilityConfig
from repro.sim.network import Message

from tests.helpers import MicroOverlay

MB = 1024 * 1024
#: peers that own their recoveries (the group deadline is armed).
RELIABLE = PeerConfig(reliability=ReliabilityConfig(enabled=True))
#: as good as certain loss (a drop probability must stay below 1).
LOST = 0.999999


class TestPairNodes:
    def test_one_to_one(self):
        assert pair_nodes([1, 2], [10, 20]) == [(1, 10), (2, 20)]

    def test_small_source_cycles(self):
        assert pair_nodes([1], [10, 20, 30]) == [(1, 10), (1, 20), (1, 30)]

    def test_large_source_truncates(self):
        # Every destination gets exactly one partner.
        pairs = pair_nodes([1, 2, 3, 4], [10, 20])
        assert [d for _, d in pairs] == [10, 20]

    def test_empty(self):
        assert pair_nodes([], [1]) == []
        assert pair_nodes([1], []) == []


class TestCostModel:
    def test_paper_example(self):
        """Section 6.1.3: 10 categories x 1000 docs x 4 MB x 2 replicas into
        clusters of 500 among 200k nodes."""
        model = rebalance_cost(
            n_categories=10,
            docs_per_category=1000,
            doc_size=4 * MB,
            n_reps=2,
            destination_size=500,
            total_nodes=200_000,
        )
        assert model.bytes_per_category == 8000 * MB  # 8 GB
        assert model.bytes_per_transfer == pytest.approx(16 * MB)
        assert model.engaged_node_pairs == 5000
        assert model.engaged_fraction == pytest.approx(0.025)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rebalance_cost(0, 1, 1, 1, 1, 1)


def _two_cluster_overlay(config=None):
    """Cluster 0 = {0, 1} serving category 7; cluster 1 = {2, 3} empty."""
    overlay = MicroOverlay()
    overlay.network.rng = np.random.default_rng(0)
    for node_id in range(4):
        overlay.add_peer(node_id, config=config)
    overlay.wire_cluster(0, [0, 1], edges=[(0, 1)], category_map={7: 0})
    overlay.wire_cluster(1, [2, 3], edges=[(2, 3)])
    overlay.give_document(0, 100, [7], size=2 * MB)
    overlay.give_document(1, 101, [7], size=2 * MB)
    return overlay


def _notice(pairs, counter=1):
    return m.ReassignNotice(
        category_id=7,
        source_cluster=0,
        target_cluster=1,
        move_counter=counter,
        transfer_pairs=tuple(pairs),
    )


def _deliver(overlay, dst, notice):
    overlay.peers[dst].handle_message(
        Message(src=99, dst=dst, kind="reassign_notice", payload=notice)
    )


class TestReassignExecution:
    def test_metadata_updated_first(self):
        overlay = _two_cluster_overlay()
        notice = _notice([(0, 2), (1, 3)])
        for node_id in range(4):
            _deliver(overlay, node_id, notice)
        for node_id in range(4):
            assert overlay.peers[node_id].dcrt.cluster_of(7) == 1
            assert overlay.peers[node_id].dcrt.entry(7).move_counter == 1

    @pytest.mark.parametrize("config", [None, RELIABLE], ids=["plain", "reliable"])
    def test_transfers_populate_destination(self, config):
        overlay = _two_cluster_overlay(config)
        rerequests = obs.counter("overlay.group_rerequests").value
        notice = _notice([(0, 2), (1, 3)])
        for node_id in range(4):
            _deliver(overlay, node_id, notice)
        overlay.run()
        assert sorted(overlay.peers[2].docs) == [100]
        assert sorted(overlay.peers[3].docs) == [101]
        assert overlay.peers[2].dt.has_document(100)
        assert overlay.peers[3].dt.has_document(101)
        # Without loss each destination asks for its group once.
        assert overlay.network.stats.by_kind["transfer_request"] == 2
        assert obs.counter("overlay.group_rerequests").value == rerequests

    def test_lost_group_is_asked_for_again_and_lands(self):
        overlay = _two_cluster_overlay(RELIABLE)
        rerequests = obs.counter("overlay.group_rerequests").value
        overlay.network.set_kind_drop_probability("transfer_data", LOST)
        for node_id in range(4):
            _deliver(overlay, node_id, _notice([(0, 2), (1, 3)]))
        # Both first answers are lost; the loss ends before the deadline.
        overlay.sim.schedule(
            _GROUP_DEADLINE / 2, overlay.network.clear_kind_drop_probabilities
        )
        overlay.run()
        assert sorted(overlay.peers[2].docs) == [100]
        assert sorted(overlay.peers[3].docs) == [101]
        assert overlay.network.stats.by_kind["transfer_request"] == 4
        assert obs.counter("overlay.group_rerequests").value == rerequests + 2

    def test_group_is_given_up_after_a_fixed_number_of_asks(self):
        overlay = _two_cluster_overlay(RELIABLE)
        abandoned = obs.counter("overlay.group_abandoned").value
        overlay.network.set_kind_drop_probability("transfer_request", LOST)
        _deliver(overlay, 2, _notice([(0, 2)]))
        overlay.run()
        assert overlay.network.stats.by_kind["transfer_request"] == _GROUP_TRIES
        assert obs.counter("overlay.group_abandoned").value == abandoned + 1
        # Given up: a category query no longer waits on the transfer.
        query = m.QueryMessage(
            query_id=78, requester_id=1, category_id=7, remaining=1,
        )
        assert not overlay.peers[2].adaptation.park(query)

    def test_document_answer_before_the_group_leaves_it_pending(self):
        """Only the group's answer ends the transfer: a per-document pull
        that lands first must not cancel the group's recovery."""
        overlay = _two_cluster_overlay(RELIABLE)
        overlay.give_document(0, 102, [7], size=MB)
        destination = overlay.peers[2]
        overlay.network.set_kind_drop_probability("transfer_data", LOST)
        for node_id in range(4):
            _deliver(overlay, node_id, _notice([(0, 2), (1, 3)]))
        doc_query = m.QueryMessage(
            query_id=77, requester_id=1, category_id=7, remaining=1,
            hops=1, target_cluster=1, target_doc_id=100,
        )
        parked = []

        def pull_one_document():
            # The group's first answer was lost; doc 100 alone is pulled now.
            overlay.network.clear_kind_drop_probabilities()
            destination.handle_message(
                Message(src=1, dst=2, kind="query", payload=doc_query)
            )

        def ask_for_the_category():
            assert 100 in destination.docs and 102 not in destination.docs
            query = m.QueryMessage(
                query_id=78, requester_id=1, category_id=7, remaining=2,
            )
            parked.append(destination.adaptation.park(query))

        overlay.sim.schedule(_GROUP_DEADLINE / 2, pull_one_document)
        overlay.sim.schedule(_GROUP_DEADLINE * 0.9, ask_for_the_category)
        overlay.run()
        assert parked == [True]
        assert sorted(destination.docs) == [100, 102]

    def test_duplicate_transfer_data_journals_nothing(self):
        overlay = _two_cluster_overlay()
        destination = overlay.peers[2]
        destination.attach_journal(PeerJournal(MemoryStore()))
        data = m.TransferData(
            category_id=7, doc_ids=(100,), total_bytes=2 * MB, group=True
        )
        written = []
        for _ in range(2):
            destination.handle_message(
                Message(src=0, dst=2, kind="transfer_data", payload=data)
            )
            written.append(destination.journal.records_written)
        assert written[0] == written[1]
        assert sorted(destination.docs) == [100]

    def test_transfer_bytes_accounted(self):
        overlay = _two_cluster_overlay()
        notice = _notice([(0, 2), (1, 3)])
        for node_id in range(4):
            _deliver(overlay, node_id, notice)
        overlay.run()
        stats = overlay.network.stats
        assert stats.bytes_by_kind.get("transfer_data", 0) >= 4 * MB

    def test_duplicate_notice_ignored(self):
        overlay = _two_cluster_overlay()
        notice = _notice([(0, 2), (1, 3)])
        for node_id in range(4):
            _deliver(overlay, node_id, notice)
        overlay.run()
        requests_before = overlay.network.stats.by_kind.get("transfer_request", 0)
        for node_id in range(4):
            _deliver(overlay, node_id, notice)
        overlay.run()
        requests_after = overlay.network.stats.by_kind.get("transfer_request", 0)
        assert requests_after == requests_before

    def test_stale_notice_does_not_roll_back(self):
        overlay = _two_cluster_overlay()
        fresh = m.ReassignNotice(
            category_id=7, source_cluster=1, target_cluster=0,
            move_counter=5, transfer_pairs=(),
        )
        _deliver(overlay, 2, fresh)
        stale = _notice([(0, 2)], counter=1)
        _deliver(overlay, 2, stale)
        assert overlay.peers[2].dcrt.cluster_of(7) == 0
        assert overlay.peers[2].dcrt.entry(7).move_counter == 5

    def test_query_during_transfer_pull_on_demand(self):
        """Lazy step 4: a destination node asked for a document it does not
        yet store pulls it from its coupled source node, then replies."""
        overlay = _two_cluster_overlay()
        notice = _notice([(0, 2), (1, 3)])
        # Only node 2 (destination) learns about the move for now.
        _deliver(overlay, 2, notice)
        # A query for category 7 reaches node 2 before its scheduled
        # transfer fired.
        query = m.QueryMessage(
            query_id=77, requester_id=1, category_id=7, remaining=1,
            hops=1, target_cluster=1, target_doc_id=100,
        )
        overlay.peers[2].handle_message(
            Message(src=1, dst=2, kind="query", payload=query)
        )
        overlay.run()
        # The requester got an answer served by node 2 after the pull.
        responders = [r.responder_id for _, r in overlay.hooks.responses]
        assert 2 in responders
        assert overlay.peers[2].dt.has_document(100)

    def test_one_source_splits_group_across_partners(self):
        # Round-robin pairing: node 0 serves two destinations.  Its group
        # is split, so the destination cluster *collectively* receives all
        # of node 0's documents (each exactly once).
        overlay = _two_cluster_overlay()
        overlay.give_document(0, 102, [7], size=MB)
        notice = _notice([(0, 2), (0, 3)])
        for node_id in range(4):
            _deliver(overlay, node_id, notice)
        overlay.run()
        received_2 = {d for d in (100, 102) if overlay.peers[2].dt.has_document(d)}
        received_3 = {d for d in (100, 102) if overlay.peers[3].dt.has_document(d)}
        assert received_2 | received_3 == {100, 102}
        assert not (received_2 & received_3)  # no duplication

    def test_designated_docs_deduplicate_replicas(self):
        # Both sources hold a replica of doc 100 (hot replication); the
        # coordinator designates only node 0 to ship it.
        overlay = _two_cluster_overlay()
        overlay.give_document(1, 100, [7], size=2 * MB)  # replica at node 1
        notice = m.ReassignNotice(
            category_id=7,
            source_cluster=0,
            target_cluster=1,
            move_counter=1,
            transfer_pairs=((0, 2), (1, 3)),
            source_docs=((0, (100,)), (1, (101,))),
        )
        for node_id in range(4):
            _deliver(overlay, node_id, notice)
        overlay.run()
        transferred = overlay.network.stats.bytes_by_kind.get("transfer_data", 0)
        # Doc 100 (2 MB) once + doc 101 (2 MB) once — not doc 100 twice.
        assert transferred <= 4 * MB + 4096
