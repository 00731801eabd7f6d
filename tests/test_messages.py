"""Tests for the protocol message payloads."""

import dataclasses
import inspect

import pytest

from repro.metrics.response import QueryOutcome
from repro.overlay import messages as m
from repro.overlay.metadata import DCRTEntry
from repro.transport import Message

#: every class built by ``repro.frozen.frozen_dataclass``.
ALL_MESSAGE_TYPES = [
    *sorted(m.WIRE_TYPES.values(), key=lambda cls: cls.__name__),
    Message,
    DCRTEntry,
    QueryOutcome,
]

#: field annotation -> a value of it, for building one of each class.
SAMPLES = {
    "int": 3,
    "float": 0.5,
    "bool": False,
    "Any": "payload",
    "str": "kind",
    "float | None": 1.5,
    "int | None": 2,
    "DCRTEntry": DCRTEntry(1, 2),
}


def sample(annotation: str):
    return () if annotation.startswith("tuple[") else SAMPLES[annotation]


def as_plain_dataclass(cls):
    """``cls`` as ``@dataclass(frozen=True, slots=True)`` would build it."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [
            (f.name, f.type)
            if f.default is dataclasses.MISSING
            else (f.name, f.type, dataclasses.field(default=f.default))
            for f in dataclasses.fields(cls)
        ],
        frozen=True,
        slots=True,
    )


class TestMessageHygiene:
    def test_all_payloads_are_frozen_dataclasses(self):
        # Frozen payloads cannot be mutated in flight — the network may
        # deliver one object to many handlers.  Only the constructor
        # differs from what ``@dataclass(frozen=True, slots=True)`` builds.
        for message_type in ALL_MESSAGE_TYPES:
            assert dataclasses.is_dataclass(message_type), message_type
            params = message_type.__dataclass_params__
            assert params.frozen, message_type
            plain = as_plain_dataclass(message_type)
            assert inspect.signature(message_type) == inspect.signature(plain)
            fields = dataclasses.fields(message_type)
            values = [sample(f.type) for f in fields]
            payload, twin = message_type(*values), plain(*values)
            assert (repr(payload), hash(payload)) == (repr(twin), hash(twin))
            assert payload == message_type(*values)
            assert not hasattr(payload, "__dict__")
            assert dataclasses.replace(payload) == payload
            for field in fields:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(payload, field.name, getattr(payload, field.name))
            first = fields[0].name
            changed = dataclasses.replace(payload, **{first: SAMPLES["int"] + 1})
            assert getattr(changed, first) == SAMPLES["int"] + 1
            assert dataclasses.replace(changed, **{first: values[0]}) == payload

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
