"""Versioned binary wire codec for live transports: ``repro.wire/v2``.

A frame on the wire is::

    4-byte big-endian body length | body

and the body, big-endian throughout, is::

    version 0x02 (1 byte) | kind length (1 byte) | kind (ASCII)
    | type id (1 byte) | src, dst, size, delivery_id, attempt (int64 each)
    | payload

The type id is the index of the payload's class name in sorted
:data:`repro.overlay.messages.WIRE_TYPES` (:data:`NO_PAYLOAD` for none);
``kind`` travels as a string because two kinds may share a type
(``gossip`` and ``gossip_reply`` both carry a ``GossipDigest``).  The
payload is its fields in declaration order, laid out by
:mod:`repro.codec` (``DCRTEntry`` and ``DocInfo`` inline), which
generates one encoder and one decoder per wire type when this module
loads, compiled under file names like ``<wire QueryResponse decoder>``.

Encoding raises :class:`WireError` for a value its annotation does not
admit: an int outside int64, a non-finite float, a non-bool for a
``bool``, a wrong shape.  Decoding **fails fast** and is total: a short
header, a length mismatch, a version byte other than 0x02 (a
``repro.wire/v1`` JSON body starts with ``{``), a non-ASCII kind, an
unknown type id, a header value out of range, a count larger than the
bytes left could hold (refused before anything is built), a bool byte
other than 0 or 1, a non-finite float, a truncated field or a trailing
byte each raise :class:`WireDecodeError` before any protocol code runs.
"""

from __future__ import annotations

import dataclasses
from struct import Struct, error as StructError
from typing import Callable

from repro.codec import Run, Source, decode, encode
from repro.overlay.messages import WIRE_TYPES, DocInfo
from repro.overlay.metadata import DCRTEntry
from repro.transport.base import Message

__all__ = [
    "WIRE_SCHEMA",
    "WireError",
    "WireDecodeError",
    "encode_frame",
    "decode_frame",
]

WIRE_SCHEMA = "repro.wire/v2"
#: first byte of every body: the schema's version.
VERSION = 2
#: type id of a frame without a payload.
NO_PAYLOAD = 255
#: payload type name -> type id.
TYPE_IDS = {name: index for index, name in enumerate(sorted(WIRE_TYPES))}

#: frame body length prefix: 4 bytes, big-endian.
HEADER_BYTES = 4
#: hard cap on one frame body (64 MiB) — a corrupt length prefix must
#: not convince a reader to wait for gigabytes.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: version byte and kind length.
_PREFIX = Struct(">BB")
_VERSION_BYTE = bytes([VERSION])


class WireError(Exception):
    """Base class for wire-codec failures (encode side included)."""


class WireDecodeError(WireError):
    """A frame failed to decode: wrong schema, truncated, or corrupt."""


#: annotation -> class of a value written as its fields, inline.
_INLINE = {"DCRTEntry": DCRTEntry, "DocInfo": DocInfo}


def _compile_codec(type_id: int, cls: type | None):
    """Generate the encoder (``Message``, parts list) -> None and the
    decoder (body, offset of the header's int64s, kind) -> ``Message``
    of frames whose payload is a ``cls`` (``None``: no payload)."""
    name = cls.__name__ if cls is not None else "NoPayload"
    fields = dataclasses.fields(cls) if cls is not None else ()
    env = {"_cls": cls, "_Message": Message}

    encoder, run = Source(env, _INLINE, WireError), Run()
    encoder.emit(1, "p = m.payload")
    run.add("B", str(type_id))
    for attribute in ("src", "dst", "size_bytes", "delivery_id", "attempt"):
        run.add("q", f"m.{attribute}")
    for field in fields:
        encode(field.type, f"p.{field.name}", encoder, run, 1, f"{name}.{field.name}")
    run.pack(encoder, 1)

    decoder, run = Source(env, _INLINE, WireDecodeError), Run()
    header = [decoder.local() for _ in range(5)]
    for value in header:
        run.add("q", value)
    src, dst, size, delivery_id, attempt = header
    run.checks.append(
        f"if {size} < 0 or {delivery_id} < -1 or {attempt} < 0: raise _Error("
        f"f'header needs size >= 0, delivery_id >= -1 and attempt >= 0, "
        f"got {{{size}}}, {{{delivery_id}}}, {{{attempt}}}')"
    )
    args = [decode(f.type, decoder, run, 1, f"{name}.{f.name}") for f in fields]
    run.unpack(decoder, 1)
    decoder.emit(
        1,
        f"if o != len(d): "
        f"raise _Error(f'{{len(d) - o}} trailing bytes after a {name}')",
    )
    payload = f"_cls({', '.join(args)})" if cls is not None else "None"
    decoder.emit(
        1,
        f"return _Message({src}, {dst}, k, {payload}, "
        f"{size}, {delivery_id}, {attempt})",
    )
    return (
        encoder.define("m, parts", f"<wire {name} encoder>"),
        decoder.define("d, o, k", f"<wire {name} decoder>"),
    )


#: payload class -> its generated encoder.
_ENCODERS: dict[type, Callable] = {}
#: type id -> its generated decoder.
_DECODERS: dict[int, Callable] = {}

_ENCODERS[type(None)], _DECODERS[NO_PAYLOAD] = _compile_codec(NO_PAYLOAD, None)
for _name, _id in TYPE_IDS.items():
    _cls = WIRE_TYPES[_name]
    _ENCODERS[_cls], _DECODERS[_id] = _compile_codec(_id, _cls)


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------


def encode_frame(message: Message) -> bytes:
    """Encode ``message`` into one length-prefixed wire frame."""
    encode = _ENCODERS.get(type(message.payload))
    if encode is None:
        raise WireError(
            f"{type(message.payload).__name__} is not a registered wire type"
        )
    try:
        kind = message.kind.encode("ascii")
        parts = [_PREFIX.pack(VERSION, len(kind)), kind]
        encode(message, parts)
    except (StructError, TypeError, ValueError, AttributeError) as exc:
        raise WireError(f"{message.kind!r} frame does not encode: {exc}") from exc
    body = b"".join(parts)
    if len(body) > MAX_BODY_BYTES:
        raise WireError(
            f"frame body of {len(body)} bytes exceeds cap {MAX_BODY_BYTES}"
        )
    return len(body).to_bytes(HEADER_BYTES, "big") + body


def decode_frame(data: bytes) -> Message:
    """Decode one complete wire frame (as carried by a UDP datagram).

    The datagram must contain exactly one frame: a short header, a body
    shorter or longer than the declared length, or an over-cap length
    all raise :class:`WireDecodeError`, and so does a body that is not a
    ``repro.wire/v2`` encoding of a :class:`Message`.
    """
    if len(data) < HEADER_BYTES:
        raise WireDecodeError(
            f"truncated frame: {len(data)} bytes is shorter than the header"
        )
    declared = int.from_bytes(data[:HEADER_BYTES], "big")
    if declared > MAX_BODY_BYTES:
        raise WireDecodeError(
            f"declared body of {declared} bytes exceeds cap {MAX_BODY_BYTES}"
        )
    if len(data) - HEADER_BYTES != declared:
        raise WireDecodeError(
            f"frame length mismatch: header declares {declared} bytes, "
            f"datagram carries {len(data) - HEADER_BYTES}"
        )
    version = data[HEADER_BYTES:HEADER_BYTES + 1]
    if version != _VERSION_BYTE:
        raise WireDecodeError(
            f"unsupported wire schema: version byte {version.hex() or 'missing'}"
            f" (expected {VERSION:02x}, {WIRE_SCHEMA})"
        )
    try:
        _, length = _PREFIX.unpack_from(data, HEADER_BYTES)
        end = HEADER_BYTES + 2 + length
        if end >= len(data):
            raise WireDecodeError("truncated frame header: no type id")
        decode = _DECODERS.get(data[end])
        if decode is None:
            raise WireDecodeError(f"unknown wire type id {data[end]}")
        return decode(data, end + 1, data[HEADER_BYTES + 2:end].decode("ascii"))
    except (StructError, UnicodeDecodeError) as exc:
        raise WireDecodeError(f"truncated or corrupt frame body: {exc}") from exc
