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
payload is its fields in declaration order, laid out from their
annotations: ``int`` is an int64, ``float`` a finite IEEE double,
``bool`` one byte 0 or 1, ``tuple[X, ...]`` a uint32 count and then the
items, and a pair, a ``DCRTEntry`` or a ``DocInfo`` its fields inline.

One encoder and one decoder per wire type are generated from those
annotations when this module loads (compiled under file names like
``<wire QueryResponse decoder>``).  Each run of fixed-size values goes
through one precompiled :class:`struct.Struct`, the header with the
fields that follow it, and a ``tuple[int, ...]`` through one ``struct``
call, so a frame costs a few Python calls whatever its size.

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
from struct import Struct, calcsize, error as StructError, pack, unpack_from
from typing import Callable

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


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------

#: scalar annotation -> its struct format character.
_FORMATS = {"int": "q", "float": "d", "bool": "B"}
#: annotation -> class of a value written as its fields, inline.
_INLINE = {"DCRTEntry": DCRTEntry, "DocInfo": DocInfo}


class _Source:
    """The body of one generated function, with fresh local names and
    the ``Struct`` objects it uses."""

    def __init__(self, env: dict) -> None:
        self.lines: list[str] = []
        self.names = 0
        self.env = {
            "_inf": float("inf"),
            "_pack": pack,
            "_unpack_from": unpack_from,
            "_WireError": WireError,
            "_WireDecodeError": WireDecodeError,
            **{f"_{name}": cls for name, cls in _INLINE.items()},
            **env,
        }

    def local(self) -> str:
        self.names += 1
        return f"_{self.names}"

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def struct(self, fmt: str) -> str:
        name = f"_S{len(self.env)}"
        self.env[name] = Struct(">" + fmt)
        return name

    def define(self, params: str, filename: str) -> Callable:
        source = f"def _fn({params}):\n" + "\n".join(self.lines) + "\n"
        exec(compile(source, filename, "exec"), self.env)
        return self.env["_fn"]


class _Run:
    """Fixed-size values waiting for one ``Struct`` call: a format, the
    value expressions (or target names) and, when decoding, the checks
    those values must pass once unpacked."""

    def __init__(self) -> None:
        self.fmt = ""
        self.values: list[str] = []
        self.checks: list[str] = []

    def add(self, fmt: str, value: str) -> None:
        self.fmt += fmt
        self.values.append(value)

    def pack(self, out: _Source, depth: int) -> None:
        if self.values:
            values = ", ".join(self.values)
            out.emit(depth, f"parts.append({out.struct(self.fmt)}.pack({values}))")
        self.fmt, self.values, self.checks = "", [], []

    def unpack(self, out: _Source, depth: int) -> None:
        if self.values:
            struct = out.struct(self.fmt)
            out.emit(depth, f"{', '.join(self.values)}, = {struct}.unpack_from(d, o)")
            out.emit(depth, f"o += {calcsize('>' + self.fmt)}")
            for check in self.checks:
                out.emit(depth, check)
        self.fmt, self.values, self.checks = "", [], []


def _tuple_args(annotation: str) -> tuple[str, str]:
    """``tuple[X, ...]`` -> ``(X, "...")``; a pair ``tuple[A, B]`` -> ``(A, B)``.

    The only fixed-length tuples the payloads use are pairs with a scalar
    first, so a pair splits at its first comma.
    """
    inner = annotation[len("tuple["):-1]
    if inner.endswith(", ..."):
        return inner[: -len(", ...")], "..."
    first, second = inner.split(", ", 1)
    return first, second


def _min_bytes(annotation: str) -> int:
    """The fewest bytes a value of ``annotation`` takes on the wire."""
    if annotation in _FORMATS:
        return calcsize(_FORMATS[annotation])
    if annotation in _INLINE:
        return sum(_min_bytes(f.type) for f in dataclasses.fields(_INLINE[annotation]))
    first, second = _tuple_args(annotation)
    return 4 if second == "..." else _min_bytes(first) + _min_bytes(second)


def _encode(annotation: str, value: str, out: _Source, run: _Run, depth: int,
            where: str) -> None:
    """Emit into ``out`` what writes ``value``, an ``annotation``: scalars
    join ``run``; a tuple's count ends it, and its items follow."""
    fmt = _FORMATS.get(annotation)
    if fmt is not None:
        test = {
            "float": f"type({value}) is bool or not -_inf < {value} < _inf",
            "bool": f"type({value}) is not bool",
        }.get(annotation)
        if test is not None:
            out.emit(
                depth,
                f"if {test}: raise _WireError(f'{where} cannot be {{{value}!r}}')",
            )
        run.add(fmt, value)
        return
    cls = _INLINE.get(annotation)
    if cls is not None:
        for field in dataclasses.fields(cls):
            _encode(field.type, f"{value}.{field.name}", out, run, depth,
                    f"{where}.{field.name}")
        return
    first, second = _tuple_args(annotation)
    if second != "...":
        a, b = out.local(), out.local()
        out.emit(depth, f"{a}, {b} = {value}")
        _encode(first, a, out, run, depth, where)
        _encode(second, b, out, run, depth, where)
        return
    run.add("I", f"len({value})")
    run.pack(out, depth)
    if first == "int":
        out.emit(depth, f"parts.append(_pack(f'>{{len({value})}}q', *{value}))")
        return
    item, inner = out.local(), _Run()
    out.emit(depth, f"for {item} in {value}:")
    _encode(first, item, out, inner, depth + 1, where)
    inner.pack(out, depth + 1)


def _decode(annotation: str, out: _Source, run: _Run, depth: int, where: str) -> str:
    """Emit into ``out`` what reads an ``annotation`` at offset ``o`` of
    ``d``; return the expression that builds it.  Scalars join ``run``
    (their names are bound when it is unpacked); a tuple's count ends it
    and is checked against the bytes left before any item is read."""
    fmt = _FORMATS.get(annotation)
    if fmt is not None:
        value = out.local()
        run.add(fmt, value)
        if annotation == "float":
            run.checks.append(
                f"if not -_inf < {value} < _inf: "
                f"raise _WireDecodeError('{where} is not finite')"
            )
        elif annotation == "bool":
            run.checks.append(
                f"if {value} > 1: raise _WireDecodeError('{where} is not 0 or 1')"
            )
            return f"{value} == 1"
        return value
    cls = _INLINE.get(annotation)
    if cls is not None:
        args = ", ".join(
            _decode(f.type, out, run, depth, f"{where}.{f.name}")
            for f in dataclasses.fields(cls)
        )
        return f"_{annotation}({args})"
    first, second = _tuple_args(annotation)
    if second != "...":
        a = _decode(first, out, run, depth, where)
        return f"({a}, {_decode(second, out, run, depth, where)})"
    count, items = out.local(), out.local()
    run.add("I", count)
    run.unpack(out, depth)
    out.emit(
        depth,
        f"if {count} * {_min_bytes(first)} > len(d) - o: raise _WireDecodeError("
        f"f'{where} declares {{{count}}} items in {{len(d) - o}} bytes')",
    )
    if first == "int":
        out.emit(depth, f"{items} = _unpack_from(f'>{{{count}}}q', d, o)")
        out.emit(depth, f"o += 8 * {count}")
        return items
    inner = _Run()
    out.emit(depth, f"{items} = []")
    out.emit(depth, f"for _ in range({count}):")
    item = _decode(first, out, inner, depth + 1, where)
    inner.unpack(out, depth + 1)
    out.emit(depth + 1, f"{items}.append({item})")
    return f"tuple({items})"


def _compile_codec(type_id: int, cls: type | None):
    """Generate the encoder (``Message``, parts list) -> None and the
    decoder (body, offset of the header's int64s, kind) -> ``Message``
    of frames whose payload is a ``cls`` (``None``: no payload)."""
    name = cls.__name__ if cls is not None else "NoPayload"
    fields = dataclasses.fields(cls) if cls is not None else ()
    env = {"_cls": cls, "_Message": Message}

    encoder, run = _Source(env), _Run()
    encoder.emit(1, "p = m.payload")
    run.add("B", str(type_id))
    for attribute in ("src", "dst", "size_bytes", "delivery_id", "attempt"):
        run.add("q", f"m.{attribute}")
    for field in fields:
        _encode(field.type, f"p.{field.name}", encoder, run, 1, f"{name}.{field.name}")
    run.pack(encoder, 1)

    decoder, run = _Source(env), _Run()
    header = [decoder.local() for _ in range(5)]
    for value in header:
        run.add("q", value)
    src, dst, size, delivery_id, attempt = header
    run.checks.append(
        f"if {size} < 0 or {delivery_id} < -1 or {attempt} < 0: raise _WireDecodeError("
        f"f'header needs size >= 0, delivery_id >= -1 and attempt >= 0, "
        f"got {{{size}}}, {{{delivery_id}}}, {{{attempt}}}')"
    )
    args = [_decode(f.type, decoder, run, 1, f"{name}.{f.name}") for f in fields]
    run.unpack(decoder, 1)
    decoder.emit(
        1,
        f"if o != len(d): "
        f"raise _WireDecodeError(f'{{len(d) - o}} trailing bytes after a {name}')",
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
