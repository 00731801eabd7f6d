"""Versioned wire codec for live transports: ``repro.wire/v1``.

A frame on the wire is::

    4-byte big-endian body length | body

where the body is a JSON-encoded *envelope*::

    {"schema": "repro.wire/v1", "kind": ..., "src": ..., "dst": ...,
     "size": ..., "delivery_id": ..., "attempt": ..., "payload": ...}

``payload`` is the existing :func:`repro.overlay.messages.to_wire`
record (``{"type": ClassName, "fields": {...}}``), so every protocol
dataclass that travels through the simulator travels unchanged over
UDP.  Decoding **fails fast**: an unknown schema tag, a truncated
header, a length mismatch, a body that is not JSON, an envelope field
that is not an in-range integer, or an unregistered payload type all
raise :class:`WireDecodeError` before any protocol code runs.
"""

from __future__ import annotations

import json
from typing import Any

from repro.overlay.messages import from_wire, to_wire
from repro.transport.base import Message

__all__ = [
    "WIRE_SCHEMA",
    "WireError",
    "WireDecodeError",
    "encode_envelope",
    "decode_envelope",
    "encode_frame",
    "decode_frame",
]

WIRE_SCHEMA = "repro.wire/v1"

#: frame body length prefix: 4 bytes, big-endian.
HEADER_BYTES = 4
#: hard cap on one frame body (64 MiB) — a corrupt length prefix must
#: not convince a reader to wait for gigabytes.
MAX_BODY_BYTES = 64 * 1024 * 1024

# Built once: ``json.dumps`` with non-default separators constructs a new
# ``JSONEncoder`` per frame.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


class WireError(Exception):
    """Base class for wire-codec failures (encode side included)."""


class WireDecodeError(WireError):
    """A frame failed to decode: wrong schema, truncated, or corrupt."""


def encode_envelope(message: Message) -> dict:
    """Build the schema-tagged envelope dict for ``message``."""
    return {
        "schema": WIRE_SCHEMA,
        "kind": message.kind,
        "src": message.src,
        "dst": message.dst,
        "size": message.size_bytes,
        "delivery_id": message.delivery_id,
        "attempt": message.attempt,
        "payload": None if message.payload is None else to_wire(message.payload),
    }


def decode_envelope(envelope: Any) -> Message:
    """Validate an envelope and rebuild its :class:`Message`.

    Fast-fail contract: the schema tag is checked *first*, so readers
    reject frames from a future ``repro.wire/v2`` (or arbitrary noise
    that happens to parse) before looking at any other field.
    """
    if not isinstance(envelope, dict):
        raise WireDecodeError(
            f"envelope must be a mapping, got {type(envelope).__name__}"
        )
    schema = envelope.get("schema")
    if schema != WIRE_SCHEMA:
        raise WireDecodeError(
            f"unsupported wire schema {schema!r} (expected {WIRE_SCHEMA!r})"
        )
    try:
        kind = envelope["kind"]
        src = envelope["src"]
        dst = envelope["dst"]
    except KeyError as exc:
        raise WireDecodeError(f"envelope missing field: {exc}") from exc
    if not isinstance(kind, str):
        raise WireDecodeError(f"kind must be a string, got {kind!r}")
    size_bytes = envelope.get("size", 256)
    delivery_id = envelope.get("delivery_id", -1)
    attempt = envelope.get("attempt", 0)
    # ``type(...) is int``, not ``isinstance``: JSON ``true`` is a bool,
    # and a bool delivery id would earn an ack and a dedup-window entry.
    if not (
        type(src) is int
        and type(dst) is int
        and type(size_bytes) is int
        and size_bytes >= 0
        and type(delivery_id) is int
        and delivery_id >= -1
        and type(attempt) is int
        and attempt >= 0
    ):
        raise WireDecodeError(
            "envelope needs integer src, dst, size >= 0, delivery_id >= -1 "
            f"and attempt >= 0, got {src!r}, {dst!r}, {size_bytes!r}, "
            f"{delivery_id!r}, {attempt!r}"
        )
    raw_payload = envelope.get("payload")
    if raw_payload is None:
        payload = None
    else:
        try:
            payload = from_wire(raw_payload)
        except (TypeError, KeyError, ValueError) as exc:
            raise WireDecodeError(f"payload failed to decode: {exc}") from exc
    return Message(src, dst, kind, payload, size_bytes, delivery_id, attempt)


def encode_frame(message: Message) -> bytes:
    """Encode ``message`` into one length-prefixed wire frame."""
    body = _ENCODER.encode(encode_envelope(message)).encode("utf-8")
    if len(body) > MAX_BODY_BYTES:
        raise WireError(
            f"frame body of {len(body)} bytes exceeds cap {MAX_BODY_BYTES}"
        )
    return len(body).to_bytes(HEADER_BYTES, "big") + body


def decode_frame(data: bytes) -> Message:
    """Decode one complete wire frame (as carried by a UDP datagram).

    The datagram must contain exactly one frame: a short header, a body
    shorter or longer than the declared length, or an over-cap length
    all raise :class:`WireDecodeError`.
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
    body = data[HEADER_BYTES:]
    if len(body) != declared:
        raise WireDecodeError(
            f"frame length mismatch: header declares {declared} bytes, "
            f"datagram carries {len(body)}"
        )
    try:
        envelope = json.loads(bytes(body).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireDecodeError(f"frame body is not valid JSON: {exc}") from exc
    return decode_envelope(envelope)
