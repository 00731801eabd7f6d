"""Write-ahead-log and snapshot codec for per-peer durable state.

The durable unit is a *record*: a small JSON-safe tuple whose first
element names the change (``store``, ``drop``, ``dcrt``, ``epoch``,
``join``, ``manifest``, ``flags``).  Records are framed one per line as
``<crc32-hex> <json-body>\\n`` so that a torn tail — a write cut mid
record by power loss — is detectable: replay applies the longest prefix
of intact lines and stops at the first frame whose checksum, framing or
record shape fails.  Everything after a torn record is unrecoverable by
definition (the log is causally ordered), so stopping is the correct
semantics, not a best-effort skip.

Snapshots use the same one-frame encoding over a single canonical JSON
object (sorted keys, no whitespace), which makes "byte-identical
state" a checkable property: two peers with equal durable state encode
to equal bytes.
"""

from __future__ import annotations

import json
import zlib

__all__ = [
    "encode_record",
    "decode_frame",
    "replay_wal",
    "encode_snapshot",
    "decode_snapshot",
]


# One encoder each, built once: ``json.dumps`` with non-default separators
# constructs a new ``JSONEncoder`` on every call.
_RECORD_ENCODER = json.JSONEncoder(separators=(",", ":"))
_SNAPSHOT_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def _int(x) -> bool:
    return type(x) is int


def _ints(x) -> bool:
    return type(x) is list and all(map(_int, x))


#: record kind -> one check per field after the kind.  Any fields fit a
#: kind not listed here (materializing skips it).
_RECORD_FIELDS = {
    "store": (_int, _int, _ints), "drop": (_int,), "dcrt": (_int,) * 3,
    "epoch": (_int,) * 2, "join": (_int,), "manifest": (_int,) * 4,
    "flags": (lambda x: type(x) in (int, float), lambda x: type(x) is bool),
}
#: snapshot section -> the record kind its rows are shaped like.
_ROWS = {"dcrt": "dcrt", "docs": "store", "epochs": "epoch", "manifests": "manifest"}


def _fits(values, kind) -> bool:
    checks = _RECORD_FIELDS.get(kind) if type(kind) is str else None
    return checks is None or (
        type(values) is list and len(values) == len(checks)
        and all(check(value) for check, value in zip(checks, values))
    )


def _frame(body: bytes) -> bytes:
    return f"{zlib.crc32(body):08x} ".encode("ascii") + body + b"\n"


def encode_record(record) -> bytes:
    """One WAL record -> one checksummed, newline-terminated frame."""
    return _frame(_RECORD_ENCODER.encode(list(record)).encode("utf-8"))


def decode_frame(line: bytes):
    """One frame (without the newline) -> the decoded value, or None.

    None means the frame is torn or corrupt: missing checksum field,
    checksum mismatch, or unparsable body.
    """
    prefix, _, body = line.partition(b" ")
    if len(prefix) != 8 or not body:
        return None
    try:
        expected = int(prefix, 16)
    except ValueError:
        return None
    if zlib.crc32(body) != expected:
        return None
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def replay_wal(data: bytes) -> list[tuple]:
    """Decode the longest valid prefix of a WAL byte string.

    A frame that fails to decode — including the common torn write: a
    final line with no terminating newline — or a malformed record ends
    the replay; everything before it is returned as tuples.
    """
    records: list[tuple] = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            break  # torn tail: the record was cut before its newline
        decoded = decode_frame(data[offset:newline])
        if type(decoded) is not list or not decoded:
            break  # corrupt frame: nothing after it is trustworthy
        if not _fits(decoded[1:], decoded[0]):
            break  # malformed record: as untrustworthy as a torn one
        records.append(tuple(decoded))
        offset = newline + 1
    return records


def encode_snapshot(state: dict) -> bytes:
    """Canonical (sorted-keys) checksummed encoding of one state dict."""
    return _frame(_SNAPSHOT_ENCODER.encode(state).encode("utf-8"))


def decode_snapshot(data: bytes) -> dict | None:
    """Inverse of :func:`encode_snapshot`; None when torn or corrupt, or
    when a section is not in its canonical shape."""
    state = decode_frame(data.rstrip(b"\n"))
    if type(state) is not dict:
        return None
    flags = state.get("flags", {"capacity": 0.0, "free_rider": False})
    canonical = (
        all(
            type(rows := state.get(section, [])) is list
            and all(_fits(row, kind) for row in rows)
            for section, kind in _ROWS.items()
        )
        and _ints(state.get("memberships", []))
        and type(flags) is dict and list(flags) == ["capacity", "free_rider"]
        and _fits(list(flags.values()), "flags")
    )
    return state if canonical else None
