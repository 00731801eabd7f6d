"""The versioned wire envelope: round-trip fidelity and fast-fail decode.

The decode contract under test: any byte string either decodes to a
valid :class:`Message` or raises :class:`WireDecodeError` — never an
``IndexError``, ``KeyError``, or other incidental exception — and an
unsupported schema tag is rejected before any other field is examined.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.overlay import messages as m
from repro.overlay.metadata import DCRTEntry
from repro.transport import Message
from repro.transport.wire import (
    HEADER_BYTES,
    MAX_BODY_BYTES,
    WIRE_SCHEMA,
    WireDecodeError,
    decode_envelope,
    decode_frame,
    encode_envelope,
    encode_frame,
)

from tests.test_message_roundtrip import WIRE_CLASSES, _payload_strategy

PAYLOADS = [
    None,
    m.QueryMessage(query_id=7, requester_id=1, category_id=3, remaining=2),
    m.QueryResponse(
        query_id=7,
        doc_ids=(4, 9),
        responder_id=2,
        hops=3,
        dcrt_updates=((3, DCRTEntry(1, 5)),),
        doc_infos=(m.DocInfo(doc_id=4, categories=(3, 5), size_bytes=1024),),
    ),
    m.JoinReply(
        responder_id=0,
        dcrt_snapshot=((0, DCRTEntry(0, 0)), (1, DCRTEntry(2, 3))),
        nrt_snapshot=((0, (0, 1, 2)), (2, (5,))),
    ),
    m.ChunkData(
        request_id=1_000_000_000_001,
        fetch_id=12,
        responder_id=3,
        doc_id=4,
        chunk_index=1,
        chunk_hash=(1 << 62) + 17,
        size_bytes=65_536,
    ),
    m.Ack(delivery_id=55, receiver_id=9),
]


@pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
def test_frame_round_trip(payload):
    message = Message(1, 2, "test", payload, 512, delivery_id=7, attempt=2)
    decoded = decode_frame(encode_frame(message))
    assert decoded == message  # tuples and nested types restored exactly


def test_round_trip_defaults():
    decoded = decode_frame(encode_frame(Message(0, 1, "ping")))
    assert decoded.size_bytes == 256
    assert decoded.delivery_id == -1
    assert decoded.attempt == 0


def test_unknown_schema_fails_fast():
    envelope = encode_envelope(Message(0, 1, "x"))
    envelope["schema"] = "repro.wire/v2"
    # Fast-fail contract: the schema is checked before anything else, so
    # even an otherwise-broken envelope reports the schema mismatch.
    envelope["payload"] = {"nonsense": True}
    del envelope["kind"]
    with pytest.raises(WireDecodeError, match="unsupported wire schema"):
        decode_envelope(envelope)


def test_missing_schema_rejected():
    with pytest.raises(WireDecodeError, match="unsupported wire schema"):
        decode_envelope({"kind": "x", "src": 0, "dst": 1})


def test_non_mapping_envelope_rejected():
    with pytest.raises(WireDecodeError, match="mapping"):
        decode_envelope([1, 2, 3])


def test_unregistered_payload_type_rejected():
    envelope = encode_envelope(Message(0, 1, "x"))
    envelope["payload"] = {"type": "NoSuchMessage", "fields": {}}
    with pytest.raises(WireDecodeError, match="payload failed to decode"):
        decode_envelope(envelope)


@pytest.mark.parametrize(
    "field, value",
    [
        ("src", 3.9),
        ("dst", "1"),
        ("size", -5),
        ("delivery_id", True),
        ("delivery_id", -2),
        ("attempt", -2),
    ],
)
def test_envelope_field_of_wrong_type_or_range_rejected(field, value):
    # Each of these used to be coerced by ``int()`` (``true`` to a
    # delivery id of 1, which then earned an ack and a dedup entry).
    envelope = encode_envelope(Message(0, 1, "x", None, 256, 7, 2))
    assert decode_envelope(dict(envelope)) == Message(0, 1, "x", None, 256, 7, 2)
    envelope[field] = value
    with pytest.raises(WireDecodeError, match="integer"):
        decode_envelope(envelope)


@pytest.mark.parametrize(
    "payload, field, value",
    [
        (PAYLOADS[1], "hops", "many"),
        (PAYLOADS[1], "category_id", [1, 2]),
        (PAYLOADS[4], "found", 1),
        (m.Busy(query_id=3, responder_id=2, retry_after=0.5), "retry_after", True),
        # A tagged dict decodes to a DCRTEntry, which is not a tuple.
        (PAYLOADS[2], "doc_ids", {"$": "DCRTEntry", "v": [1, 2]}),
        (PAYLOADS[1], "attempt", "x"),
        # Items of a tuple are checked too, pairs position by position.
        (PAYLOADS[2], "doc_ids", ["x"]),
        (PAYLOADS[2], "doc_infos", [5]),
        (PAYLOADS[2], "dcrt_updates", [[1, 2]]),
        (PAYLOADS[2], "dcrt_updates", [[3, {"$": "DCRTEntry", "v": [1, 5]}, 4]]),
        (PAYLOADS[3], "nrt_snapshot", [[0, [1, "a"]]]),
        # So are the fields of a nested value, nothing coerced: each of
        # these used to decode through ``int()`` (``["7", true]`` as
        # ``DCRTEntry(7, 1)``).
        (PAYLOADS[2], "dcrt_updates", [[3, {"$": "DCRTEntry", "v": ["7", True]}]]),
        (PAYLOADS[2], "dcrt_updates", [[3, {"$": "DCRTEntry", "v": [7, True]}]]),
        (PAYLOADS[2], "dcrt_updates", [[3, {"$": "DCRTEntry", "v": "12"}]]),
        (PAYLOADS[2], "doc_infos", [{"$": "DocInfo", "v": [2.9, ["3"], "10"]}]),
        (PAYLOADS[2], "doc_infos", [{"$": "DocInfo", "v": [2, [3.0], 10]}]),
        (PAYLOADS[2], "doc_infos", [{"$": "DocInfo", "v": [2, {"3": 0}, 10]}]),
        (
            m.PublishRequest(publisher_id=1, doc_id=2, category_id=3),
            "believed_entry",
            {"$": "DCRTEntry", "v": [1.0, 0]},
        ),
    ],
    ids=["str-for-int", "list-for-int", "int-for-bool", "bool-for-float",
         "dict-for-tuple", "str-attempt", "str-item", "int-for-docinfo",
         "int-for-dcrt-entry", "triple-for-pair", "str-in-nested-tuple",
         "str-and-bool-in-entry", "bool-in-entry", "str-for-entry-fields",
         "float-and-str-in-docinfo", "float-category", "dict-for-categories",
         "float-in-believed-entry"],
)
def test_payload_field_of_wrong_type_rejected(payload, field, value):
    envelope = encode_envelope(Message(1, 2, "x", payload))
    envelope["payload"]["fields"][field] = value
    with pytest.raises(WireDecodeError, match=f"{field} must be"):
        decode_frame(_frame(envelope))


def _frame(envelope) -> bytes:
    body = json.dumps(envelope).encode()
    return len(body).to_bytes(HEADER_BYTES, "big") + body


@pytest.mark.parametrize(
    "fields", [[1, 2], None, "hops", 7], ids=["list", "null", "string", "number"]
)
def test_non_object_fields_rejected(fields):
    # ``from_wire`` used to call ``.items()`` on these, and the
    # ``AttributeError`` escaped ``decode_frame`` into the receive loop.
    envelope = encode_envelope(Message(1, 2, "query", PAYLOADS[1]))
    envelope["payload"]["fields"] = fields
    with pytest.raises(WireDecodeError, match="fields must be an object"):
        decode_frame(_frame(envelope))


def test_truncated_header_rejected():
    with pytest.raises(WireDecodeError, match="truncated"):
        decode_frame(b"\x00\x01")


def test_length_mismatch_rejected():
    data = encode_frame(Message(0, 1, "x"))
    with pytest.raises(WireDecodeError, match="length mismatch"):
        decode_frame(data[:-1])
    with pytest.raises(WireDecodeError, match="length mismatch"):
        decode_frame(data + b"!")


def test_over_cap_declared_length_rejected():
    header = (MAX_BODY_BYTES + 1).to_bytes(HEADER_BYTES, "big")
    with pytest.raises(WireDecodeError, match="exceeds cap"):
        decode_frame(header + b"x")


def test_corrupt_body_rejected():
    body = b"this is not json at all {{{"
    data = len(body).to_bytes(HEADER_BYTES, "big") + body
    with pytest.raises(WireDecodeError, match="not valid JSON"):
        decode_frame(data)


#: ``kind`` -> the exact frame bytes, recorded before ``encode_frame``
#: began reusing one module-level ``JSONEncoder``: peers running either
#: version must keep decoding each other.
GOLDEN_FRAMES = {
    "query": (
        PAYLOADS[1],
        b'\x00\x00\x01\x05{"schema":"repro.wire/v1","kind":"query","src":1,'
        b'"dst":2,"size":512,"delivery_id":7,"attempt":2,"payload":{"type":'
        b'"QueryMessage","fields":{"query_id":7,"requester_id":1,'
        b'"category_id":3,"remaining":2,"hops":0,"target_cluster":-1,'
        b'"target_doc_id":-1,"attempt":0}}}',
    ),
    "query_response": (
        PAYLOADS[2],
        b'\x00\x00\x010{"schema":"repro.wire/v1","kind":"query_response",'
        b'"src":1,"dst":2,"size":512,"delivery_id":7,"attempt":2,"payload":'
        b'{"type":"QueryResponse","fields":{"query_id":7,"doc_ids":[4,9],'
        b'"responder_id":2,"hops":3,"dcrt_updates":[[3,{"$":"DCRTEntry",'
        b'"v":[1,5]}]],"doc_infos":[{"$":"DocInfo","v":[4,[3,5],1024]}]}}}',
    ),
}


@pytest.mark.parametrize("kind", GOLDEN_FRAMES)
def test_frame_bytes_are_golden(kind):
    payload, expected = GOLDEN_FRAMES[kind]
    message = Message(1, 2, kind, payload, 512, delivery_id=7, attempt=2)
    assert encode_frame(message) == expected
    assert decode_frame(expected) == message


def test_query_frame_without_attempt_decodes_as_attempt_zero():
    # The ``query`` frame as peers wrote it before queries carried their
    # dispatch number: it still decodes, as attempt 0.
    legacy = (
        b'\x00\x00\x00\xf9{"schema":"repro.wire/v1","kind":"query","src":1,'
        b'"dst":2,"size":512,"delivery_id":7,"attempt":2,"payload":{"type":'
        b'"QueryMessage","fields":{"query_id":7,"requester_id":1,'
        b'"category_id":3,"remaining":2,"hops":0,"target_cluster":-1,'
        b'"target_doc_id":-1}}}'
    )
    decoded = decode_frame(legacy)
    assert decoded.payload.attempt == 0
    assert decoded == Message(1, 2, "query", PAYLOADS[1], 512, 7, 2)


def test_schema_tag_on_the_wire():
    data = encode_frame(Message(0, 1, "x"))
    envelope = json.loads(data[HEADER_BYTES:])
    assert envelope["schema"] == WIRE_SCHEMA


def _assert_decode_is_total(data: bytes) -> None:
    """Decode must return a Message or raise WireDecodeError — nothing else."""
    try:
        message = decode_frame(data)
    except WireDecodeError:
        return
    assert isinstance(message, Message)


def test_fuzz_truncations():
    data = encode_frame(
        Message(
            3,
            4,
            "query",
            m.QueryMessage(query_id=1, requester_id=3, category_id=0, remaining=1),
        )
    )
    for cut in range(len(data)):
        _assert_decode_is_total(data[:cut])


def test_fuzz_corruptions():
    rng = random.Random(0xC0DEC)
    base = encode_frame(Message(1, 2, "query_response", PAYLOADS[2]))
    for _ in range(400):
        data = bytearray(base)
        for _ in range(rng.randint(1, 6)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        _assert_decode_is_total(bytes(data))


def test_fuzz_random_noise():
    rng = random.Random(0xBADF00D)
    for _ in range(200):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
        _assert_decode_is_total(data)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    """The path of every node of a JSON tree, the root's included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, (*path, key))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, (*path, index))


def _replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fuzz_one_node_of_a_valid_envelope(data):
    # Byte-level fuzzing rarely keeps a frame parseable; this keeps the
    # JSON valid and swaps one node anywhere in the tree (the envelope,
    # the record, ``fields``, a tuple item, a nested entry) for any value.
    cls = data.draw(st.sampled_from(WIRE_CLASSES))
    envelope = encode_envelope(Message(1, 2, "x", data.draw(_payload_strategy(cls))))
    path = data.draw(st.sampled_from(list(_paths(envelope))))
    _assert_decode_is_total(_frame(_replaced(envelope, path, data.draw(JSON_VALUES))))
