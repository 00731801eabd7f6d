"""Write-ahead-log and snapshot codec for per-peer durable state.

A record ``(kind, *fields)`` is one acknowledged change of one of the six
kinds declared below, framed as body length and crc32 (uint32 each) and
a body: the kind's type id byte (:data:`TYPE_IDS`) and its fields, laid
out by :mod:`repro.codec` like a ``repro.wire/v2`` payload.  Replay keeps
the longest valid prefix: the log is causally ordered, so it stops at the
first torn or corrupt frame, unknown type id or malformed body (every
process is built from one tree: no older replayer skips unknown kinds).
A snapshot is one frame of the state's record bodies in :data:`SECTIONS`
order, so equal durable state encodes to equal bytes.
"""

from __future__ import annotations

import dataclasses
import zlib
from struct import Struct, error as StructError

from repro.codec import Run, Source, decode, encode

__all__ = ["encode_record", "replay_wal", "encode_snapshot", "decode_snapshot"]


@dataclasses.dataclass(frozen=True)
class Dcrt:
    category_id: int
    cluster_id: int
    move_counter: int


@dataclasses.dataclass(frozen=True)
class Drop:
    doc_id: int


@dataclasses.dataclass(frozen=True)
class Epoch:
    category_id: int
    epoch: int


@dataclasses.dataclass(frozen=True)
class Join:
    cluster_id: int


@dataclasses.dataclass(frozen=True)
class Manifest:
    doc_id: int
    size_bytes: int
    chunk_size: int
    version: int


@dataclasses.dataclass(frozen=True)
class Store:
    doc_id: int
    size_bytes: int
    categories: tuple[int, ...]


#: record kind -> the declaration of the fields after the kind.
RECORD_TYPES = {
    cls.__name__.lower(): cls for cls in (Dcrt, Drop, Epoch, Join, Manifest, Store)
}
#: record kind -> type id.
TYPE_IDS = {kind: index for index, kind in enumerate(sorted(RECORD_TYPES))}
#: record kind -> the state section a snapshot holds its rows in, in
#: snapshot order.  A ``drop`` is a change, never state.  A section's
#: row is the record's fields as a list; a one-field row is the value.
SECTIONS = {
    "dcrt": "dcrt", "store": "docs", "epoch": "epochs",
    "manifest": "manifests", "join": "memberships",
}

#: body length and crc32 of the body.
_HEADER = Struct(">II")


def _compile(kind: str):
    """Generate ``kind``'s encoder ``(rows, parts)``, which appends each
    row's body to ``parts``, and its decoder ``(body, offset past the type
    id) -> (record, offset)``, which raises ValueError or ``struct.error``."""
    fields = dataclasses.fields(RECORD_TYPES[kind])
    encoder, run = Source({}, {}, ValueError), Run()
    names = [encoder.local() for _ in fields]
    encoder.emit(1, "for r in rows:")
    encoder.emit(2, f"{', '.join(names) if len(names) > 1 else names[0]} = r")
    run.add("B", str(TYPE_IDS[kind]))
    for name, field in zip(names, fields):
        encode(field.type, name, encoder, run, 2, f"{kind}.{field.name}")
    run.pack(encoder, 2)
    decoder, run = Source({}, {}, ValueError), Run()
    args = [decode(f.type, decoder, run, 1, f"{kind}.{f.name}") for f in fields]
    run.unpack(decoder, 1)
    decoder.emit(1, f"return ({kind!r}, {', '.join(args)}), o")
    return (
        encoder.define("rows, parts", f"<wal {kind} encoder>"),
        decoder.define("d, o", f"<wal {kind} decoder>"),
    )


#: record kind -> its encoder; type id, as a one-byte string -> its decoder.
_ENCODERS, _DECODERS = {}, {}
for _kind, _id in TYPE_IDS.items():
    _ENCODERS[_kind], _DECODERS[bytes([_id])] = _compile(_kind)


def _frame(parts: list[bytes]) -> bytes:
    body = b"".join(parts)
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def _body(data: bytes, offset: int) -> bytes | None:
    """The body of the frame at ``offset``; None when the header is short,
    the length runs past the end or the crc does not match."""
    if len(data) - offset < _HEADER.size:
        return None
    length, crc = _HEADER.unpack_from(data, offset)
    start = offset + _HEADER.size
    body = data[start:start + length]
    return body if len(body) == length and zlib.crc32(body) == crc else None


def _read(body: bytes, offset: int) -> tuple[tuple, int]:
    """The record whose body starts at ``offset``, and the offset after it."""
    decoder = _DECODERS.get(body[offset:offset + 1])
    if decoder is None:
        raise ValueError("unknown record type id")
    return decoder(body, offset + 1)


def encode_record(record) -> bytes:
    """One WAL record ``(kind, *fields)`` -> one checksummed frame."""
    parts: list[bytes] = []
    # Written as a section of one row; a one-field row is the value itself.
    _ENCODERS[record[0]]((record[1:] if len(record) > 2 else record[1],), parts)
    return _frame(parts)


def replay_wal(data: bytes) -> list[tuple]:
    """Decode the longest valid prefix of a WAL byte string.

    A frame that is torn or corrupt, or whose body is not exactly one
    record, ends the replay; everything before it is returned.
    """
    records: list[tuple] = []
    offset = 0
    while (body := _body(data, offset)) is not None:
        try:
            record, end = _read(body, 0)
        except (ValueError, StructError):
            break
        if end != len(body):
            break
        records.append(record)
        offset += _HEADER.size + end
    return records


def state_records(state: dict):
    """``state``'s rows as records, in snapshot order."""
    for kind, section in SECTIONS.items():
        for row in state[section]:
            yield (kind, row) if type(row) is int else (kind, *row)


def encode_snapshot(state: dict) -> bytes:
    """One state dict -> one checksummed frame of its rows' record bodies."""
    parts: list[bytes] = []
    for kind, section in SECTIONS.items():
        _ENCODERS[kind](state[section], parts)
    return _frame(parts)


def decode_snapshot(data: bytes) -> dict | None:
    """Inverse of :func:`encode_snapshot`; None when the frame is torn or
    corrupt, a body does not decode, or a body is a ``drop``."""
    body = _body(data, 0)
    if body is None or len(data) != _HEADER.size + len(body):
        return None
    state: dict = {section: [] for section in SECTIONS.values()}
    offset = 0
    try:
        while offset < len(body):
            (kind, *row), offset = _read(body, offset)
            if kind not in SECTIONS:
                return None
            state[SECTIONS[kind]].append(row if len(row) > 1 else row[0])
    except (ValueError, StructError):
        return None
    return state
