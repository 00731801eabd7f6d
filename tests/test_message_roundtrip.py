"""Property tests: every protocol payload survives the wire codec.

For each registered wire type, Hypothesis builds payloads from the
dataclass field annotations (including nested ``DCRTEntry``/``DocInfo``
values and empty/large collections) and asserts that
``decode_frame(encode_frame(m)) == m`` — tuples stay tuples, nested
types come back as their own classes, floats round-trip bit-exactly.

A plain recursive codec written from the frame layout of
``docs/api.md`` is kept below as the oracle for the generated one: same
frame bytes, same decoded message, same accept/reject decision on a
frame with one field overwritten.
"""

from __future__ import annotations

import dataclasses
import math
import random
import struct
import typing

import pytest
from hypothesis import given, settings, strategies as st

from repro.overlay import messages as m
from repro.overlay.metadata import DCRTEntry
from repro.transport import Message, decode_frame, encode_frame
from repro.transport.wire import (
    HEADER_BYTES,
    NO_PAYLOAD,
    VERSION,
    WireDecodeError,
    WireError,
)

WIRE_CLASSES = sorted(m.WIRE_TYPES.values(), key=lambda cls: cls.__name__)

INT64 = (-(2**63), 2**63 - 1)


def _strategy_for(annotation):
    if annotation is int:
        return st.integers(*INT64)
    if annotation is float:
        return st.floats(allow_nan=False, allow_infinity=False, width=64)
    if annotation is bool:
        return st.booleans()
    if dataclasses.is_dataclass(annotation):
        return _payload_strategy(annotation)
    origin = typing.get_origin(annotation)
    if origin is tuple:
        args = typing.get_args(annotation)
        if len(args) == 2 and args[1] is Ellipsis:
            return st.lists(_strategy_for(args[0]), max_size=4).map(tuple)
        return st.tuples(*(_strategy_for(arg) for arg in args))
    raise NotImplementedError(
        f"no strategy for field annotation {annotation!r}"
    )


def _payload_strategy(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(
        cls,
        **{
            field.name: _strategy_for(hints[field.name])
            for field in dataclasses.fields(cls)
        },
    )


def sample_payload(cls, rng: random.Random):
    """A deterministic payload of ``cls`` drawn from ``rng``: every
    tuple holds one or two items, so every layout case is on the wire."""

    def value(annotation):
        if annotation is int:
            return rng.randint(*INT64)
        if annotation is float:
            return rng.uniform(-1e9, 1e9)
        if annotation is bool:
            return rng.random() < 0.5
        if dataclasses.is_dataclass(annotation):
            hints = typing.get_type_hints(annotation)
            return annotation(
                **{f.name: value(hints[f.name]) for f in dataclasses.fields(annotation)}
            )
        args = typing.get_args(annotation)
        if args[1] is Ellipsis:
            return tuple(value(args[0]) for _ in range(rng.randint(1, 2)))
        return tuple(value(arg) for arg in args)

    return value(cls)


def test_every_message_type_is_registered():
    # The codec registry must cover the full protocol: every dataclass
    # exported by the messages module is a wire type.
    exported = {
        name
        for name in m.__all__
        if isinstance(getattr(m, name, None), type)
        and dataclasses.is_dataclass(getattr(m, name))
    }
    assert exported == set(m.WIRE_TYPES)
    assert len(WIRE_CLASSES) >= 18


@pytest.mark.parametrize("cls", WIRE_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_wire_roundtrip_identity(cls, data):
    payload = data.draw(_payload_strategy(cls))
    decoded = decode_frame(encode_frame(Message(1, 2, "test", payload))).payload
    assert type(decoded) is cls
    assert decoded == payload


@pytest.mark.parametrize("cls", WIRE_CLASSES, ids=lambda cls: cls.__name__)
def test_wire_roundtrip_boundary_payloads(cls):
    """Defaults-only and extreme-scalar payloads survive the codec."""
    hints = typing.get_type_hints(cls)
    for extreme in INT64:
        boundary: dict[str, object] = {}
        for field in dataclasses.fields(cls):
            annotation = hints[field.name]
            if annotation is int:
                boundary[field.name] = extreme
            elif annotation is float:
                boundary[field.name] = 0.1 + 0.2  # not exactly representable
            elif annotation is bool:
                boundary[field.name] = False
            elif annotation is DCRTEntry:
                boundary[field.name] = DCRTEntry(0, extreme)
            elif typing.get_origin(annotation) is tuple:
                boundary[field.name] = ()
            else:  # pragma: no cover - future field types
                raise NotImplementedError(annotation)
        message = Message(1, 2, "test", cls(**boundary))
        assert decode_frame(encode_frame(message)) == message


def test_unregistered_payload_rejected():
    with pytest.raises(WireError, match="not a registered wire type"):
        encode_frame(Message(1, 2, "x", object()))
    data = bytearray(encode_frame(Message(1, 2, "x")))
    data[HEADER_BYTES + 3] = len(WIRE_CLASSES)  # the first unused type id
    with pytest.raises(WireDecodeError, match="unknown wire type id"):
        decode_frame(bytes(data))


# ----------------------------------------------------------------------
# differential: the generated per-type codec against a recursive one
# ----------------------------------------------------------------------

#: scalar annotation -> struct format character.
_FORMATS = {int: "q", float: "d", bool: "B"}
#: type id -> class, as the frame layout defines it.
_BY_ID = dict(enumerate(sorted(m.WIRE_TYPES.values(), key=lambda c: c.__name__)))


def _write(annotation, value, out: bytearray, nodes: list) -> None:
    """Append ``value``, an ``annotation``, to ``out``; record the
    (offset, format) of every scalar and count written."""
    fmt = _FORMATS.get(annotation)
    if fmt is not None:
        if annotation is float and not math.isfinite(value):
            raise WireError("not finite")
        nodes.append((len(out), fmt))
        out += struct.pack(">" + fmt, value)
    elif dataclasses.is_dataclass(annotation):
        hints = typing.get_type_hints(annotation)
        for field in dataclasses.fields(annotation):
            _write(hints[field.name], getattr(value, field.name), out, nodes)
    else:
        args = typing.get_args(annotation)
        if args[1] is Ellipsis:
            nodes.append((len(out), "I"))
            out += struct.pack(">I", len(value))
            for item in value:
                _write(args[0], item, out, nodes)
        else:
            for arg, item in zip(args, value, strict=True):
                _write(arg, item, out, nodes)


def oracle_frame(message: Message, nodes: list | None = None) -> bytes:
    """``encode_frame(message)``, one value at a time; ``nodes`` collects
    the (offset, format) of every field of the frame."""
    nodes = [] if nodes is None else nodes
    kind = message.kind.encode("ascii")
    payload = message.payload
    type_id = NO_PAYLOAD if payload is None else sorted(m.WIRE_TYPES).index(
        type(payload).__name__
    )
    out = bytearray(HEADER_BYTES)
    nodes += [(HEADER_BYTES, "B"), (HEADER_BYTES + 1, "B")]
    out += bytes([VERSION, len(kind)]) + kind
    nodes.append((len(out), "B"))
    out.append(type_id)
    for value in (message.src, message.dst, message.size_bytes,
                  message.delivery_id, message.attempt):
        _write(int, value, out, nodes)
    if payload is not None:
        _write(type(payload), payload, out, nodes)
    out[:HEADER_BYTES] = struct.pack(">I", len(out) - HEADER_BYTES)
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data, self.offset = data, 0

    def take(self, fmt: str):
        size = struct.calcsize(">" + fmt)
        if self.offset + size > len(self.data):
            raise ValueError("truncated")
        (value,) = struct.unpack_from(">" + fmt, self.data, self.offset)
        self.offset += size
        return value


def _read(annotation, reader: _Reader):
    fmt = _FORMATS.get(annotation)
    if fmt is not None:
        value = reader.take(fmt)
        if annotation is float and not math.isfinite(value):
            raise ValueError("not finite")
        if annotation is bool:
            if value > 1:
                raise ValueError("not a bool")
            return value == 1
        return value
    if dataclasses.is_dataclass(annotation):
        hints = typing.get_type_hints(annotation)
        fields = dataclasses.fields(annotation)
        return annotation(**{f.name: _read(hints[f.name], reader) for f in fields})
    args = typing.get_args(annotation)
    if args[1] is Ellipsis:
        return tuple(_read(args[0], reader) for _ in range(reader.take("I")))
    return tuple(_read(arg, reader) for arg in args)


def oracle_decode(data: bytes) -> Message:
    """``decode_frame(data)``, one value at a time; ``ValueError`` (or
    ``KeyError``) where it would raise ``WireDecodeError``."""
    reader = _Reader(data)
    if reader.take("I") != len(data) - HEADER_BYTES or reader.take("B") != VERSION:
        raise ValueError("length or version")
    length = reader.take("B")
    kind = bytes(data[reader.offset:reader.offset + length]).decode("ascii")
    reader.offset += length
    type_id = reader.take("B")
    cls = None if type_id == NO_PAYLOAD else _BY_ID[type_id]
    src, dst, size, delivery_id, attempt = (reader.take("q") for _ in range(5))
    if size < 0 or delivery_id < -1 or attempt < 0:
        raise ValueError("header range")
    payload = None if cls is None else _read(cls, reader)
    if reader.offset != len(data):
        raise ValueError("trailing bytes")
    return Message(src, dst, kind, payload, size, delivery_id, attempt)


#: replacement values for one field, by format: in range, at the edges,
#: and the values no encoder writes (a count past the end, a bool byte
#: of 2, NaN and the infinities).
_HOSTILE = {
    "q": st.integers(*INT64) | st.sampled_from([-2, -1, 0, 1]),
    "d": st.floats(width=64),
    "B": st.integers(0, 255),
    "I": st.integers(0, 2**32 - 1) | st.integers(0, 6),
}


def _decision(decode, data, errors):
    try:
        return "accept", decode(data)
    except errors:
        return "reject", None


@pytest.mark.parametrize("cls", WIRE_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_generated_codec_matches_the_recursive_one(cls, data):
    payload = data.draw(_payload_strategy(cls))
    message = Message(3, 4, "test", payload, 512, delivery_id=9, attempt=1)
    frame = encode_frame(message)
    assert frame == oracle_frame(message)
    assert decode_frame(frame) == oracle_decode(frame) == message


@pytest.mark.parametrize("cls", WIRE_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_decoder_accepts_what_the_recursive_one_accepts(cls, data):
    nodes: list = []
    message = Message(3, 4, "test", data.draw(_payload_strategy(cls)), 512, 9, 1)
    frame = bytearray(oracle_frame(message, nodes))
    how = data.draw(st.sampled_from(["field", "cut", "extra"]))
    if how == "field":
        offset, fmt = data.draw(st.sampled_from(nodes))
        frame[offset:offset + struct.calcsize(fmt)] = struct.pack(
            ">" + fmt, data.draw(_HOSTILE[fmt])
        )
    elif how == "cut":
        start = data.draw(st.integers(HEADER_BYTES, len(frame) - 1))
        del frame[start:start + data.draw(st.integers(1, 16))]
    else:
        at = data.draw(st.integers(HEADER_BYTES, len(frame)))
        frame[at:at] = data.draw(st.binary(min_size=1, max_size=16))
    # The length prefix follows the body, so the mutation reaches the
    # payload decoder instead of failing the length check.
    frame[:HEADER_BYTES] = struct.pack(">I", len(frame) - HEADER_BYTES)
    expected = _decision(oracle_decode, bytes(frame), (ValueError, KeyError))
    assert _decision(decode_frame, bytes(frame), WireDecodeError) == expected
