"""Tests for the protocol message payloads."""

import dataclasses

import pytest

from repro.overlay import messages as m
from repro.overlay.metadata import DCRTEntry


ALL_MESSAGE_TYPES = [
    m.QueryMessage,
    m.QueryResponse,
    m.PublishRequest,
    m.PublishReply,
    m.JoinRequest,
    m.JoinReply,
    m.LeaveNotice,
    m.HitCountRequest,
    m.HitCountReply,
    m.LoadReport,
    m.ReassignNotice,
    m.TransferRequest,
    m.TransferData,
    m.GossipDigest,
    m.CapabilityAnnounce,
]


class TestMessageHygiene:
    def test_all_payloads_are_frozen_dataclasses(self):
        # Frozen payloads cannot be mutated in flight — the network may
        # deliver one object to many handlers.
        for message_type in ALL_MESSAGE_TYPES:
            assert dataclasses.is_dataclass(message_type), message_type
            params = message_type.__dataclass_params__
            assert params.frozen, message_type

    def test_query_message_defaults(self):
        query = m.QueryMessage(
            query_id=1, requester_id=2, category_id=3, remaining=4
        )
        assert query.hops == 0
        assert query.target_cluster == -1
        assert query.target_doc_id == -1

    def test_query_message_immutable(self):
        query = m.QueryMessage(
            query_id=1, requester_id=2, category_id=3, remaining=4
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            query.hops = 5

    def test_control_size_positive(self):
        assert m.CONTROL_SIZE > 0

    def test_doc_info_exported_from_messages_and_peer(self):
        from repro.overlay.peer import DocInfo as PeerDocInfo

        assert PeerDocInfo is m.DocInfo

    def test_reassign_notice_carries_source_docs(self):
        notice = m.ReassignNotice(
            category_id=1,
            source_cluster=0,
            target_cluster=2,
            move_counter=3,
            transfer_pairs=((10, 20),),
            source_docs=((10, (100, 101)),),
        )
        assert notice.source_docs[0][1] == (100, 101)

    def test_publish_request_default_entry(self):
        request = m.PublishRequest(publisher_id=1, doc_id=2, category_id=3)
        assert request.believed_entry == DCRTEntry(0, 0)
