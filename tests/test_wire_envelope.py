"""The versioned wire envelope: round-trip fidelity and fast-fail decode.

The decode contract under test: any byte string either decodes to a
valid :class:`Message` or raises :class:`WireDecodeError` — never an
``IndexError``, ``struct.error``, or other incidental exception — and a
body that is not ``repro.wire/v2`` (a ``repro.wire/v1`` JSON envelope
included) is rejected by its first byte, before any other field is read.
The encode contract: a value its field's annotation does not admit
raises :class:`WireError` instead of reaching the wire.
"""

import dataclasses
import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.live.transport import AsyncioTransport
from repro.overlay import messages as m
from repro.overlay.metadata import DCRTEntry
from repro.transport import Message
from repro.transport.wire import (
    HEADER_BYTES,
    MAX_BODY_BYTES,
    TYPE_IDS,
    VERSION,
    WIRE_SCHEMA,
    WireDecodeError,
    WireError,
    decode_frame,
    encode_frame,
)

from tests.test_message_roundtrip import (
    WIRE_CLASSES,
    _HOSTILE,
    _payload_strategy,
    oracle_frame,
    sample_payload,
)

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

#: one deterministic payload of every wire type, each tuple non-empty.
SAMPLES = [sample_payload(cls, random.Random(index))
           for index, cls in enumerate(WIRE_CLASSES)]


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


def _framed(body: bytes) -> bytes:
    return len(body).to_bytes(HEADER_BYTES, "big") + body


def _reframed(data: bytearray) -> bytes:
    """``data`` with its length prefix fixed to fit its body."""
    data[:HEADER_BYTES] = (len(data) - HEADER_BYTES).to_bytes(HEADER_BYTES, "big")
    return bytes(data)


def test_unknown_schema_fails_fast():
    data = bytearray(encode_frame(Message(0, 1, "x", PAYLOADS[1])))
    data[HEADER_BYTES] = VERSION + 1
    # Fast-fail contract: the version is checked before anything else,
    # so even an otherwise-broken body reports the schema mismatch.
    del data[HEADER_BYTES + 1:HEADER_BYTES + 9]
    with pytest.raises(WireDecodeError, match="unsupported wire schema"):
        decode_frame(_reframed(data))


def test_missing_schema_rejected():
    with pytest.raises(WireDecodeError, match="unsupported wire schema"):
        decode_frame(_framed(b""))


def test_non_mapping_envelope_rejected():
    # The JSON array v1 refused as a non-mapping envelope: any body in
    # another format is refused by its first byte.
    with pytest.raises(WireDecodeError, match="unsupported wire schema"):
        decode_frame(_framed(b"[1, 2, 3]"))


def test_unregistered_payload_type_rejected():
    data = bytearray(encode_frame(Message(0, 1, "x")))
    for type_id in (len(WIRE_CLASSES), 200, 254):
        data[HEADER_BYTES + 3] = type_id  # after version, kind length and "x"
        with pytest.raises(WireDecodeError, match="unknown wire type id"):
            decode_frame(bytes(data))


def test_type_ids_are_pinned():
    # A type's id is the index of its name in sorted WIRE_TYPES: adding
    # or renaming a wire type renumbers the ones after it, which changes
    # the frame bytes every peer must agree on.
    assert TYPE_IDS == {
        "Ack": 0, "Busy": 1, "CapabilityAnnounce": 2, "ChunkData": 3,
        "ChunkRepair": 4, "ChunkRequest": 5, "DocInfo": 6, "GossipDigest": 7,
        "HitCountReply": 8, "HitCountRequest": 9, "JoinReply": 10,
        "JoinRequest": 11, "LeaveNotice": 12, "LoadReport": 13,
        "ManifestUpdate": 14, "Ping": 15, "Pong": 16, "PublishReply": 17,
        "PublishRequest": 18, "QueryMessage": 19, "QueryResponse": 20,
        "ReassignNotice": 21, "TransferData": 22, "TransferRequest": 23,
    }


@pytest.mark.parametrize(
    "field, value",
    [
        ("src", 3.9),
        ("dst", "1"),
        ("size", -5),
        ("delivery_id", -2),
        ("attempt", -2),
    ],
)
def test_envelope_field_of_wrong_type_or_range_rejected(field, value):
    # A header field is an int64 on the wire: a value of another type
    # cannot be written, and an int out of range cannot be read (a
    # negative delivery id below -1 would earn an ack for nothing).
    message = Message(0, 1, "x", None, 256, 7, 2)
    assert decode_frame(encode_frame(message)) == message
    attribute = "size_bytes" if field == "size" else field
    bad = dataclasses.replace(message, **{attribute: value})
    if type(value) is not int:
        with pytest.raises(WireError, match="does not encode"):
            encode_frame(bad)
        return
    with pytest.raises(WireDecodeError, match="header needs"):
        decode_frame(encode_frame(bad))


@pytest.mark.parametrize(
    "payload, field, value",
    [
        (PAYLOADS[1], "hops", "many"),
        (PAYLOADS[1], "category_id", [1, 2]),
        (PAYLOADS[4], "found", 1),
        (m.Busy(query_id=3, responder_id=2, retry_after=0.5), "retry_after", True),
        (PAYLOADS[2], "doc_ids", DCRTEntry(1, 2)),
        (PAYLOADS[1], "attempt", "x"),
        # Items of a tuple are checked too, pairs position by position.
        (PAYLOADS[2], "doc_ids", ("x",)),
        (PAYLOADS[2], "doc_infos", (5,)),
        (PAYLOADS[2], "dcrt_updates", ((1, 2),)),
        (PAYLOADS[2], "dcrt_updates", ((3, DCRTEntry(1, 5), 4),)),
        (PAYLOADS[3], "nrt_snapshot", ((0, (1, "a")),)),
        # So are the fields of a nested value, nothing coerced.
        (PAYLOADS[2], "dcrt_updates", ((3, DCRTEntry("7", True)),)),
        (PAYLOADS[2], "dcrt_updates", ((3, "12"),)),
        (PAYLOADS[2], "doc_infos", (m.DocInfo(2.9, ("3",), "10"),)),
        (PAYLOADS[2], "doc_infos", (m.DocInfo(2, (3.0,), 10),)),
        (PAYLOADS[2], "doc_infos", (m.DocInfo(2, {"3": 0}, 10),)),
        (
            m.PublishRequest(publisher_id=1, doc_id=2, category_id=3),
            "believed_entry",
            DCRTEntry(1.0, 0),
        ),
    ],
    ids=["str-for-int", "list-for-int", "int-for-bool", "bool-for-float",
         "dict-for-tuple", "str-attempt", "str-item", "int-for-docinfo",
         "int-for-dcrt-entry", "triple-for-pair", "str-in-nested-tuple",
         "str-and-bool-in-entry", "str-for-entry-fields",
         "float-and-str-in-docinfo", "float-category", "dict-for-categories",
         "float-in-believed-entry"],
)
def test_payload_field_of_wrong_type_rejected(payload, field, value):
    # A v2 frame carries no type tags, so a wrongly typed value cannot
    # arrive as one: the encoder refuses it (an ``int`` slot never takes
    # a str or a float, a ``bool`` slot only a bool, a pair only two).
    bad = dataclasses.replace(payload, **{field: value})
    with pytest.raises(WireError) as raised:
        encode_frame(Message(1, 2, "x", bad))
    assert not isinstance(raised.value, WireDecodeError)


#: what the payload section of a ``query`` frame is replaced by: the v2
#: bytes of a list of two ints, of nothing, of a length-prefixed string
#: and of one number — none of them the 64 bytes a QueryMessage takes.
NOT_A_PAYLOAD = {
    "list": struct.pack(">Iqq", 2, 1, 2),
    "null": b"",
    "string": struct.pack(">I", 4) + b"hops",
    "number": struct.pack(">q", 7),
}


@pytest.mark.parametrize("fields", NOT_A_PAYLOAD.values(), ids=list(NOT_A_PAYLOAD))
def test_non_object_fields_rejected(fields):
    data = bytearray(encode_frame(Message(1, 2, "query", None)))
    data[HEADER_BYTES + 2 + len("query")] = TYPE_IDS["QueryMessage"]
    with pytest.raises(WireDecodeError, match="truncated or corrupt"):
        decode_frame(_reframed(data + fields))


def _patched(message, node, value) -> bytes:
    """``message``'s frame with its ``node``-th field set to ``value``."""
    nodes: list = []
    data = bytearray(oracle_frame(message, nodes))
    offset, fmt = nodes[node]
    struct.pack_into(">" + fmt, data, offset, value)
    return bytes(data)


RESPONSE = Message(1, 2, "query_response", PAYLOADS[2])
_RESPONSE_NODES: list = []
oracle_frame(RESPONSE, _RESPONSE_NODES)
#: the node index of each count in RESPONSE's frame, and of ``found``
#: (the last node of a ChunkData frame).
DOC_IDS, _, DOC_INFOS, CATEGORIES = (
    index for index, (_, fmt) in enumerate(_RESPONSE_NODES) if fmt == "I"
)
FOUND = -1

#: payload bytes no encoder writes: case -> (frame, what the error says).
HOSTILE_PAYLOADS = {
    "huge-count": (_patched(RESPONSE, DOC_IDS, 2**32 - 1), "declares 4294967295 items"),
    "count-one-over": (_patched(RESPONSE, DOC_IDS, 3), None),
    "count-one-short": (_patched(RESPONSE, DOC_IDS, 1), None),
    "nested-huge-count": (
        _patched(RESPONSE, CATEGORIES, 2**32 - 1), "categories declares 4294967295"
    ),
    "docinfo-count-over": (_patched(RESPONSE, DOC_INFOS, 9), "doc_infos declares 9"),
    "cut-inside-docinfo": (
        _reframed(bytearray(encode_frame(RESPONSE)[:-4])), "truncated or corrupt"
    ),
    "trailing-byte": (
        _reframed(bytearray(encode_frame(RESPONSE) + b"\x00")), "1 trailing bytes"
    ),
    "bool-byte-2": (
        _patched(Message(1, 2, "chunk_data", PAYLOADS[4]), FOUND, 2),
        "found is not 0 or 1",
    ),
}


@pytest.mark.parametrize("case", HOSTILE_PAYLOADS)
def test_payload_bytes_no_encoder_writes_are_rejected(case):
    data, reason = HOSTILE_PAYLOADS[case]
    with pytest.raises(WireDecodeError, match=reason):
        decode_frame(data)


#: every float field: (payload with the float set to ``value``).
FLOAT_FIELDS = {
    "Busy.retry_after": lambda v: m.Busy(3, 2, v),
    "HitCountRequest.timeout_budget": lambda v: m.HitCountRequest(1, 2, 3, v),
    "LoadReport.capacity_units": lambda v: m.LoadReport(1, 2, 3, (), (), v, 4),
    "LoadReport.category_weights":
        lambda v: m.LoadReport(1, 2, 3, (), ((5, v),), 1.0, 4),
    "HitCountReply.weights": lambda v: m.HitCountReply(1, 2, (), ((5, v),), 3),
    "CapabilityAnnounce.capabilities": lambda v: m.CapabilityAnnounce(1, ((7, v),)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_non_finite_floats_are_refused_both_ways(field, value):
    payload = FLOAT_FIELDS[field](value)
    # JSON wrote NaN and Infinity, and read them back: a ``busy`` with
    # ``retry_after=NaN`` put a NaN timer into the event loop's heap.
    with pytest.raises(WireError, match="cannot be"):
        encode_frame(Message(1, 2, "x", payload))
    # A hostile peer's bytes: the finite frame with the double patched.
    finite = Message(1, 2, "x", FLOAT_FIELDS[field](0.25))
    data = bytearray(encode_frame(finite))
    at = bytes(data).rindex(struct.pack(">d", 0.25))
    struct.pack_into(">d", data, at, value)
    with pytest.raises(WireDecodeError, match="is not finite"):
        decode_frame(bytes(data))
    transport = AsyncioTransport()
    transport._on_datagram(bytes(data), ("127.0.0.1", 9))
    assert transport.decode_errors == 1


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**64])
def test_int_outside_int64_is_refused_not_wrapped(value):
    with pytest.raises(WireError, match="does not encode"):
        encode_frame(Message(1, 2, "query", m.QueryMessage(value, 1, 3, 2)))
    with pytest.raises(WireError, match="does not encode"):
        encode_frame(Message(value, 2, "ping"))


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
    with pytest.raises(WireDecodeError, match="unsupported wire schema"):
        decode_frame(_framed(b"this is not json at all {{{"))
    # The right version byte, then a kind longer than the body.
    with pytest.raises(WireDecodeError, match="truncated"):
        decode_frame(_framed(bytes([VERSION, 255]) + b"query"))
    with pytest.raises(WireDecodeError, match="truncated or corrupt"):
        decode_frame(_framed(bytes([VERSION, 2]) + b"\xff\xfe" + bytes(41)))


#: ``kind`` -> the exact frame bytes: peers must agree on every byte.
GOLDEN_FRAMES = {
    "query": (
        PAYLOADS[1],
        bytes.fromhex(
            "00000070"  # body length: 112
            "02" "05" "7175657279"  # version 2, kind "query"
            "13"  # type id 19: QueryMessage
            "0000000000000001" "0000000000000002"  # src 1, dst 2
            "0000000000000200"  # size 512
            "0000000000000007" "0000000000000002"  # delivery_id 7, attempt 2
            "0000000000000007" "0000000000000001"  # query_id 7, requester 1
            "0000000000000003" "0000000000000002"  # category 3, remaining 2
            "0000000000000000"  # hops 0
            "ffffffffffffffff" "ffffffffffffffff"  # target cluster, doc: -1
            "0000000000000000"  # attempt 0
        ),
    ),
    "query_response": (
        PAYLOADS[2],
        bytes.fromhex(
            "000000a9"  # body length: 169
            "02" "0e" "71756572795f726573706f6e7365"  # kind "query_response"
            "14"  # type id 20: QueryResponse
            "0000000000000001" "0000000000000002" "0000000000000200"
            "0000000000000007" "0000000000000002"
            "0000000000000007"  # query_id 7
            "00000002" "0000000000000004" "0000000000000009"  # doc_ids (4, 9)
            "0000000000000002" "0000000000000003"  # responder 2, hops 3
            "00000001" "0000000000000003"  # one DCRT update, category 3
            "0000000000000001" "0000000000000005"  # DCRTEntry(1, 5)
            "00000001" "0000000000000004"  # one DocInfo, doc 4
            "00000002" "0000000000000003" "0000000000000005"  # categories
            "0000000000000400"  # size_bytes 1024
        ),
    ),
}


@pytest.mark.parametrize("kind", GOLDEN_FRAMES)
def test_frame_bytes_are_golden(kind):
    payload, expected = GOLDEN_FRAMES[kind]
    message = Message(1, 2, kind, payload, 512, delivery_id=7, attempt=2)
    assert encode_frame(message) == expected
    assert decode_frame(expected) == message


#: the ``repro.wire/v1`` frames of the same two messages, and the
#: ``query`` frame v1 wrote before queries carried ``attempt``.
V1_FRAMES = [
    b'\x00\x00\x01\x05{"schema":"repro.wire/v1","kind":"query","src":1,'
    b'"dst":2,"size":512,"delivery_id":7,"attempt":2,"payload":{"type":'
    b'"QueryMessage","fields":{"query_id":7,"requester_id":1,'
    b'"category_id":3,"remaining":2,"hops":0,"target_cluster":-1,'
    b'"target_doc_id":-1,"attempt":0}}}',
    b'\x00\x00\x010{"schema":"repro.wire/v1","kind":"query_response",'
    b'"src":1,"dst":2,"size":512,"delivery_id":7,"attempt":2,"payload":'
    b'{"type":"QueryResponse","fields":{"query_id":7,"doc_ids":[4,9],'
    b'"responder_id":2,"hops":3,"dcrt_updates":[[3,{"$":"DCRTEntry",'
    b'"v":[1,5]}]],"doc_infos":[{"$":"DocInfo","v":[4,[3,5],1024]}]}}}',
    b'\x00\x00\x00\xf9{"schema":"repro.wire/v1","kind":"query","src":1,'
    b'"dst":2,"size":512,"delivery_id":7,"attempt":2,"payload":{"type":'
    b'"QueryMessage","fields":{"query_id":7,"requester_id":1,'
    b'"category_id":3,"remaining":2,"hops":0,"target_cluster":-1,'
    b'"target_doc_id":-1}}}',
]


def test_v1_golden_frames_are_rejected_and_counted():
    # No v1 reader is kept: every live process is spawned from the same
    # code, and no frame is stored.  A v1 frame is an unknown schema.
    transport = AsyncioTransport()
    for frame in V1_FRAMES:
        with pytest.raises(WireDecodeError, match="unsupported wire schema"):
            decode_frame(frame)
        transport._on_datagram(frame, ("127.0.0.1", 9))
    assert transport.decode_errors == len(V1_FRAMES)
    assert transport.stats.messages_dropped == len(V1_FRAMES)


def test_schema_tag_on_the_wire():
    data = encode_frame(Message(0, 1, "x"))
    assert WIRE_SCHEMA == "repro.wire/v2"
    assert data[HEADER_BYTES] == VERSION


def _assert_decode_is_total(data: bytes) -> None:
    """Decode must return a Message or raise WireDecodeError — nothing else."""
    try:
        message = decode_frame(data)
    except WireDecodeError:
        return
    assert isinstance(message, Message)


def truncations(data: bytes, refit=_reframed, header: int = HEADER_BYTES):
    """Every prefix of ``data``, and each one longer than its ``header``
    again with ``refit`` fixing the header to the cut body, so the cut
    reaches the body's decoder.  Shared with the WAL fuzzers."""
    for cut in range(len(data)):
        yield data[:cut]
        if cut > header:
            yield refit(bytearray(data[:cut]))


def corruptions(base: bytes, rng: random.Random):
    """``base`` with one bit flipped at every offset, then 100 times with
    one to six random bytes overwritten."""
    for offset in range(len(base)):
        data = bytearray(base)
        data[offset] ^= 1 << rng.randrange(8)
        yield bytes(data)
    for _ in range(100):
        data = bytearray(base)
        for _ in range(rng.randint(1, 6)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        yield bytes(data)


def noise(rng: random.Random):
    """400 random byte strings of up to 63 bytes."""
    for _ in range(400):
        yield bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))


def test_fuzz_truncations():
    for payload in SAMPLES:
        data = encode_frame(Message(3, 4, "fuzz", payload, 512, 9, 1))
        for cut in truncations(data):
            _assert_decode_is_total(cut)


def test_fuzz_corruptions():
    rng = random.Random(0xC0DEC)
    for payload in SAMPLES:
        base = encode_frame(Message(1, 2, "fuzz", payload, 512, 9, 1))
        for data in corruptions(base, rng):
            _assert_decode_is_total(data)


def test_fuzz_random_noise():
    for data in noise(random.Random(0xBADF00D)):
        _assert_decode_is_total(data)
        # Noise behind a valid length and version reaches the decoders.
        _assert_decode_is_total(_framed(bytes([VERSION]) + data))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fuzz_one_node_of_a_valid_envelope(data):
    # Byte-level fuzzing rarely keeps a frame's counts consistent; this
    # overwrites one node of a valid frame — a header field, a count, a
    # tuple item, a nested entry's field — with any value of its width,
    # the ones no encoder writes included (NaN, a bool byte of 2, a
    # count past the end).
    cls = data.draw(st.sampled_from(WIRE_CLASSES))
    nodes: list = []
    frame = bytearray(oracle_frame(
        Message(1, 2, "x", data.draw(_payload_strategy(cls))), nodes
    ))
    offset, fmt = data.draw(st.sampled_from(nodes))
    struct.pack_into(">" + fmt, frame, offset, data.draw(_HOSTILE[fmt]))
    _assert_decode_is_total(bytes(frame))
