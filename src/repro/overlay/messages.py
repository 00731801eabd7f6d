"""Protocol message payloads.

Every overlay message travels through :class:`repro.sim.network.Network`
with a ``kind`` string (used for traffic breakdowns) and one of the frozen
dataclasses below as payload.  Sizes follow the paper's cost discussion:
control messages are small and constant; document transfers carry the
document size.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace
from typing import Callable

from repro.frozen import frozen_dataclass
from repro.overlay.metadata import DCRTEntry

__all__ = [
    "WIRE_TYPES",
    "to_wire",
    "from_wire",
    "DocInfo",
    "QueryMessage",
    "QueryResponse",
    "Busy",
    "PublishRequest",
    "PublishReply",
    "JoinRequest",
    "JoinReply",
    "LeaveNotice",
    "HitCountRequest",
    "HitCountReply",
    "LoadReport",
    "ReassignNotice",
    "TransferRequest",
    "TransferData",
    "GossipDigest",
    "CapabilityAnnounce",
    "Ack",
    "Ping",
    "Pong",
    "ManifestUpdate",
    "ChunkRequest",
    "ChunkData",
    "ChunkRepair",
    "CONTROL_SIZE",
]

#: Size in bytes charged for a small control message.
CONTROL_SIZE = 256


@frozen_dataclass
class DocInfo:
    """What a peer knows about a document it stores or transfers."""

    doc_id: int
    categories: tuple[int, ...]
    size_bytes: int


@frozen_dataclass
class QueryMessage:
    """A query being processed (Section 3.3).

    ``remaining`` is the number of results still wanted (the paper's ``m``
    decreased by matches found along the way); ``hops`` counts overlay
    forwarding steps so far.
    """

    query_id: int
    requester_id: int
    category_id: int
    remaining: int
    hops: int = 0
    #: cluster the requester believes serves the category — used by moved-
    #: category redirection (Section 6.1.2, lazy rebalancing step 3).
    target_cluster: int = -1
    #: specific document wanted, or -1 for any documents of the category.
    #: Document retrieval is the paper's main use case; nodes that do not
    #: hold the document locate a replica holder through cluster metadata.
    target_doc_id: int = -1
    #: the requester's dispatch number (1, 2, ... per failover).  A member
    #: drops the query as a loop only when it has seen this attempt or a
    #: later one, so a failover may revisit members an earlier attempt
    #: touched.  0 is what a frame without the field decodes to.
    attempt: int = 0

    def forwarded(self, remaining: int | None = None) -> "QueryMessage":
        """This query one overlay hop further on.

        ``remaining`` replaces the result budget when the forwarding
        node has already served part of it.
        """
        return QueryMessage(
            self.query_id,
            self.requester_id,
            self.category_id,
            self.remaining if remaining is None else remaining,
            self.hops + 1,
            self.target_cluster,
            self.target_doc_id,
            self.attempt,
        )


@frozen_dataclass
class QueryResponse:
    """Documents matching a query, returned to the requester.

    The response *is* the download: it carries the documents' metadata and
    is sized as their content, so the requester can cache what it received
    (future-work item viii).
    """

    query_id: int
    doc_ids: tuple[int, ...]
    responder_id: int
    hops: int
    #: piggybacked DCRT corrections (lazy-rebalance step 4).
    dcrt_updates: tuple[tuple[int, DCRTEntry], ...] = ()
    #: metadata of the served documents (for requester-side caching).
    doc_infos: tuple[DocInfo, ...] = ()


@frozen_dataclass
class Busy:
    """Overload signal: the responder shed the query instead of serving it.

    Sent fire-and-forget (never through the reliable channel — retrying
    an overload signal at an overloaded node would be self-defeating).
    ``retry_after`` is the responder's back-off hint; the requester waits
    at least that long before failing over to another cluster member.
    """

    query_id: int
    responder_id: int
    retry_after: float


@frozen_dataclass
class PublishRequest:
    """Announce a contribution to a category (Section 6.2, step 4)."""

    publisher_id: int
    doc_id: int
    category_id: int
    #: the cluster the publisher believes serves the category, with its
    #: freshness; receivers correct stale beliefs in their reply.
    believed_entry: DCRTEntry = DCRTEntry(0, 0)


@frozen_dataclass
class PublishReply:
    """Response to a publish: the receiver's routing knowledge.

    If the category has moved, ``dcrt_updates`` tells the publisher where
    to go next (Section 6.2, step 5).  ``accepted`` is True when the
    receiver actually serves the category's cluster.
    """

    category_id: int
    accepted: bool
    responder_id: int
    dcrt_updates: tuple[tuple[int, DCRTEntry], ...] = ()
    cluster_members: tuple[int, ...] = ()


@frozen_dataclass
class JoinRequest:
    """A new node contacting a bootstrap node (Section 6.3, step 2)."""

    joiner_id: int


@frozen_dataclass
class JoinReply:
    """Bootstrap metadata handed to a joiner: DCRT and NRT snapshots."""

    responder_id: int
    dcrt_snapshot: tuple[tuple[int, DCRTEntry], ...]
    nrt_snapshot: tuple[tuple[int, tuple[int, ...]], ...]


@frozen_dataclass
class LeaveNotice:
    """A departing node warning its cluster (Section 6.3).

    Lists the documents that become unavailable so cluster peers can
    re-replicate ones whose desired replication degree would be violated.
    """

    leaver_id: int
    cluster_id: int
    doc_ids: tuple[int, ...]


@frozen_dataclass
class HitCountRequest:
    """Phase 1 of adaptation: the leader asks for per-category hit counters.

    Forwarded recursively over the cluster graph; the sender becomes the
    receiver's parent in the on-the-fly tree (Section 6.1.2, Phase 1).
    """

    round_id: int
    cluster_id: int
    leader_id: int
    #: how long the receiver may wait for its own children before giving
    #: up.  Shrinks multiplicatively per tree level so that children always
    #: finalize (and reply) before their parent's own timeout fires.
    timeout_budget: float = 5.0


@frozen_dataclass
class HitCountReply:
    """Aggregated per-category hits flowing back up the monitoring tree.

    Carries both the hit counters (popularity estimates) and the members'
    capacity-share weights (the Section 4.3.3 denominator estimates) so the
    leader ends the round with the full per-category picture of its cluster.
    """

    round_id: int
    cluster_id: int
    counts: tuple[tuple[int, int], ...]  # (category_id, hits)
    weights: tuple[tuple[int, float], ...]  # (category_id, capacity share)
    subtree_size: int


@frozen_dataclass
class LoadReport:
    """Phase 2: a cluster leader sharing its cluster's load figures.

    ``category_weights`` are the members' capacity shares per category
    aggregated in Phase 1 — the decentralized estimate of the Section
    4.3.3 denominator, which Phase 3's fairness evaluation and Phase 4's
    reassignment both use (they must agree, or rebalancing oscillates).
    """

    round_id: int
    cluster_id: int
    leader_id: int
    category_hits: tuple[tuple[int, int], ...]
    category_weights: tuple[tuple[int, float], ...]
    capacity_units: float
    n_members: int


@frozen_dataclass
class ReassignNotice:
    """Phase 4 outcome: a category moved from one cluster to another.

    Carries the bumped ``move_counter`` so late or duplicated notices
    cannot roll the mapping back (Section 6.1.2, conflict resolution).
    """

    category_id: int
    source_cluster: int
    target_cluster: int
    move_counter: int
    #: pairings of (source node, destination node) for the data transfer.
    transfer_pairs: tuple[tuple[int, int], ...] = ()
    #: (source node, documents it is designated to ship): the coordinator
    #: partitions the category's document set over the source nodes using
    #: its cluster metadata, so each document travels once even though hot
    #: replicas sit on every source node.  Sources without an entry fall
    #: back to shipping everything they hold.
    source_docs: tuple[tuple[int, tuple[int, ...]], ...] = ()
    #: ownership epoch being claimed for the target cluster.  0 keeps the
    #: legacy (unfenced) protocol; when durability is armed, peers reject
    #: notices whose epoch does not exceed their recorded epoch for the
    #: category — a stale pre-partition owner cannot reclaim a category
    #: after the heal (single-owner-per-epoch).
    epoch: int = 0


@frozen_dataclass
class TransferRequest:
    """A destination node pulling a document group from its paired source."""

    category_id: int
    requester_id: int
    doc_ids: tuple[int, ...]


@frozen_dataclass
class TransferData:
    """Documents shipped to a destination node (sized as their content)."""

    category_id: int
    doc_ids: tuple[int, ...]
    total_bytes: int


@frozen_dataclass
class GossipDigest:
    """Anti-entropy exchange of DCRT entries (epidemic dissemination)."""

    sender_id: int
    entries: tuple[tuple[int, DCRTEntry], ...]


@frozen_dataclass
class CapabilityAnnounce:
    """Pre-election information exchange (Section 6.1.1).

    Nodes inform cluster neighbours of their computing/storage/bandwidth
    capabilities and forward what they heard from others, so that by
    election time every member has "a quite clear picture" of the cluster.
    """

    cluster_id: int
    capabilities: tuple[tuple[int, float], ...]  # (node_id, capacity_units)


@frozen_dataclass
class Ack:
    """Receipt acknowledgement for a reliably-sent message.

    ``delivery_id`` is the sender-side id that stays stable across
    retransmissions, so any attempt's ack settles the delivery.
    """

    delivery_id: int
    receiver_id: int


@frozen_dataclass
class Ping:
    """Heartbeat probe from the failure detector (Section 6.1's liveness
    assumption made explicit): "are you there?"."""

    probe_id: int
    prober_id: int


@frozen_dataclass
class Pong:
    """Heartbeat reply: the probed node confirming liveness."""

    probe_id: int
    responder_id: int


@frozen_dataclass
class ManifestUpdate:
    """A document manifest on the wire (sent beside a replica pull).

    Chunk hashes are 63-bit integers (see :mod:`repro.content.chunks`),
    so the whole manifest stays within the codec's scalar types.
    """

    doc_id: int
    size_bytes: int
    chunk_size: int
    version: int
    chunk_hashes: tuple[int, ...]
    holders: tuple[int, ...] = ()


@frozen_dataclass
class ChunkRequest:
    """Ask a holder for one chunk of a document (content data plane).

    Flows through the holder's bounded service queue when the service
    model is enabled; ``service_units`` scales service time with the
    chunk's bytes so bandwidth is a first-class load dimension.
    """

    request_id: int
    fetch_id: int
    requester_id: int
    doc_id: int
    chunk_index: int
    chunk_bytes: int

    @property
    def service_units(self) -> float:
        """Service cost relative to one control-sized query."""
        return max(1.0, self.chunk_bytes / 65_536)


@frozen_dataclass
class ChunkData:
    """One chunk answered (or refused) by a holder.

    ``found=False`` means the responder will not serve the chunk: it no
    longer holds it (the document was dropped or cache-evicted
    mid-transfer), or its service queue shed the request.  The fetcher
    fails over to another source instead of failing the fetch.
    """

    request_id: int
    fetch_id: int
    responder_id: int
    doc_id: int
    chunk_index: int
    chunk_hash: int
    size_bytes: int
    found: bool = True


@frozen_dataclass
class ChunkRepair:
    """Read-repair push: the verified chunk sent back to a stale replica,
    with the bumped manifest version."""

    doc_id: int
    chunk_index: int
    chunk_hash: int
    repairer_id: int
    version: int


# ----------------------------------------------------------------------
# wire codec
# ----------------------------------------------------------------------
#
# The simulated network passes payload objects by reference, but anything
# that wants to cross a process boundary (the live transport, persisted
# traces) needs a lossless JSON-safe encoding.  ``to_wire`` / ``from_wire``
# round-trip every payload type above exactly: tuples come back as tuples,
# nested ``DCRTEntry`` / ``DocInfo`` values (on the wire, ``{"$": name,
# "v": [their fields]}``) come back as their own types.  Decoding checks
# every value against its annotation, the items of a tuple and the fields
# of a nested value included, and coerces nothing, so a hostile frame
# cannot hand a handler a string where it counts hops, or an int where it
# merges a DCRT entry.
#
# Each wire type's encoder and decoder are generated from its field
# annotations when this module loads, so a frame costs one Python call to
# encode and one to decode, plus one constructor per object built, rather
# than a call per value.

#: payload type name -> class, for decoding.
WIRE_TYPES: dict[str, type] = {}
#: payload class -> its generated encoder (payload -> record).
_ENCODERS: dict[type, Callable[[object], dict]] = {}
#: payload type name -> its generated decoder (``fields`` object -> payload).
_DECODERS: dict[str, Callable[[dict], object]] = {}

#: scalar annotation -> the exact types its wire value may have:
#: ``type(v) is int`` refuses bools, as the envelope check does, and a
#: float field takes an int.
_SCALAR_TYPES = {"int": (int,), "float": (float, int), "bool": (bool,), "str": (str,)}
#: nested annotation -> class; such values travel tagged.
_TAGGED = {"DCRTEntry": DCRTEntry, "DocInfo": DocInfo}
#: names the generated code reads besides builtins.
_CODEC_GLOBALS = {
    **{f"_item_types_{name}": frozenset(t) for name, t in _SCALAR_TYPES.items()},
    **{f"_{name}": cls for name, cls in _TAGGED.items()},
}


class _Source:
    """The body of one generated function, with fresh local names."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.names = 0

    def local(self) -> str:
        self.names += 1
        return f"_{self.names}"

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)


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


def _encode_expr(annotation: str, value: str, out: _Source, depth: int) -> str:
    """The expression that encodes ``value``, an ``annotation``, for JSON.

    A tuple of non-scalars is built by a loop emitted into ``out`` first.
    """
    if annotation in _SCALAR_TYPES:
        return value
    if annotation in _TAGGED:
        items = ", ".join(
            _encode_expr(field.type, f"{value}.{field.name}", out, depth)
            for field in dataclasses.fields(_TAGGED[annotation])
        )
        return f'{{"$": "{annotation}", "v": [{items}]}}'
    first, second = _tuple_args(annotation)
    if second != "...":
        return (
            f"[{_encode_expr(first, f'{value}[0]', out, depth)}, "
            f"{_encode_expr(second, f'{value}[1]', out, depth)}]"
        )
    if first in _SCALAR_TYPES:
        return f"[*{value}]"
    encoded, item = out.local(), out.local()
    out.emit(depth, f"{encoded} = []")
    out.emit(depth, f"for {item} in {value}:")
    out.emit(
        depth + 1,
        f"{encoded}.append({_encode_expr(first, item, out, depth + 1)})",
    )
    return encoded


def _decode_expr(
    annotation: str, value: str, out: _Source, depth: int, fail: str
) -> str:
    """Emit into ``out`` the checks wire ``value`` must pass to be an
    ``annotation`` (each runs ``fail`` if it does not); return the
    expression that builds the decoded value."""
    types = _SCALAR_TYPES.get(annotation)
    if types is not None:
        test = " or ".join(f"type({value}) is {t.__name__}" for t in types)
        out.emit(depth, f"if not ({test}): {fail}")
        return value
    cls = _TAGGED.get(annotation)
    if cls is not None:
        fields = dataclasses.fields(cls)
        items = out.local()
        out.emit(
            depth,
            f'if type({value}) is not dict or {value}.get("$") != "{annotation}": '
            f"{fail}",
        )
        out.emit(depth, f'{items} = {value}.get("v")')
        out.emit(
            depth,
            f"if type({items}) is not list or len({items}) != {len(fields)}: {fail}",
        )
        args = ", ".join(
            _decode_expr(field.type, f"{items}[{i}]", out, depth, fail)
            for i, field in enumerate(fields)
        )
        return f"_{annotation}({args})"
    first, second = _tuple_args(annotation)
    if second != "...":
        out.emit(depth, f"if type({value}) is not list or len({value}) != 2: {fail}")
        return (
            f"({_decode_expr(first, f'{value}[0]', out, depth, fail)}, "
            f"{_decode_expr(second, f'{value}[1]', out, depth, fail)})"
        )
    if first in _SCALAR_TYPES:
        out.emit(
            depth,
            f"if type({value}) is not list "
            f"or not {{*map(type, {value})}} <= _item_types_{first}: {fail}",
        )
        return f"tuple({value})"
    decoded, item = out.local(), out.local()
    out.emit(depth, f"if type({value}) is not list: {fail}")
    out.emit(depth, f"{decoded} = []")
    out.emit(depth, f"for {item} in {value}:")
    out.emit(
        depth + 1,
        f"{decoded}.append({_decode_expr(first, item, out, depth + 1, fail)})",
    )
    return f"tuple({decoded})"


def _record_expr(fields, out: _Source) -> str:
    """The ``{name: encoded value}`` display of payload ``p``'s ``fields``."""
    return "{%s}" % ", ".join(
        f'"{field.name}": {_encode_expr(field.type, f"p.{field.name}", out, 1)}'
        for field in fields
    )


def _define(param: str, body: _Source, env: dict, filename: str):
    """Compile ``def _fn(param): body`` in ``env`` and return it."""
    source = f"def _fn({param}):\n" + "\n".join(body.lines) + "\n"
    namespace = {**_CODEC_GLOBALS, **env}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["_fn"]


def _field_error(cls: type, name: str, value) -> TypeError:
    annotation = cls.__dataclass_fields__[name].type
    return TypeError(
        f"{cls.__name__}.{name} must be {annotation}, got {type(value).__name__}"
    )


def _completer(cls: type, wire_defaults: dict) -> Callable[[dict], dict]:
    """Check a ``fields`` object that does not name every field of
    ``cls``: refuse unknown and missing required fields, fill defaults."""
    names = set(cls.__dataclass_fields__)
    required = names.difference(wire_defaults)

    def complete(fields: dict) -> dict:
        unknown = [name for name in fields if name not in names]
        missing = sorted(required.difference(fields))
        if unknown or missing:
            raise TypeError(
                f"{cls.__name__} fields: unknown {unknown}, missing {missing}"
            )
        return {**wire_defaults, **fields}

    return complete


def _compile_codec(cls: type):
    """Generate ``cls``'s encoder and decoder from its field annotations."""
    name = cls.__name__
    fields = dataclasses.fields(cls)
    encoder = _Source()
    encoder.emit(
        1, f'return {{"type": "{name}", "fields": {_record_expr(fields, encoder)}}}'
    )
    # A record without a defaulted field (one written before the field
    # existed) decodes as if the field carried what the encoder writes
    # for its default.
    defaulted = [f for f in fields if f.default is not dataclasses.MISSING]
    defaults = _Source()
    defaults.emit(1, f"return {_record_expr(defaulted, defaults)}")
    wire_defaults = _define("p", defaults, {}, f"<wire {name} defaults>")(
        SimpleNamespace(**{f.name: f.default for f in defaulted})
    )
    decoder = _Source()
    decoder.emit(1, "if f.keys() != _names:")
    decoder.emit(2, "f = _complete(f)")
    args = []
    for field in fields:
        raw = decoder.local()
        decoder.emit(1, f'{raw} = f["{field.name}"]')
        fail = f'raise _field_error(_cls, "{field.name}", {raw})'
        args.append(_decode_expr(field.type, raw, decoder, 1, fail))
    decoder.emit(1, f"return _cls({', '.join(args)})")
    env = {
        "_cls": cls,
        "_names": frozenset(f.name for f in fields),
        "_complete": _completer(cls, wire_defaults),
        "_field_error": _field_error,
    }
    return (
        _define("p", encoder, env, f"<wire {name} encoder>"),
        _define("f", decoder, env, f"<wire {name} decoder>"),
    )


def _register_wire_types() -> None:
    for name in __all__:
        cls = globals().get(name)
        if isinstance(cls, type) and dataclasses.is_dataclass(cls):
            WIRE_TYPES[name] = cls
            _ENCODERS[cls], _DECODERS[name] = _compile_codec(cls)


def to_wire(payload) -> dict:
    """Encode a protocol payload into a JSON-safe dict.

    The result contains only dicts, lists, strings, numbers, bools, and
    nulls, so ``json.dumps`` accepts it directly.
    """
    encode = _ENCODERS.get(type(payload))
    if encode is None:
        raise TypeError(f"{type(payload).__name__} is not a registered wire type")
    return encode(payload)


def from_wire(record: dict):
    """Decode a :func:`to_wire` record back into its payload object.

    Raises ``KeyError`` for a record without ``type`` or ``fields``, and
    ``TypeError`` for an unknown type, for ``fields`` that is not an
    object, for an unknown or missing field, or for a value that does not
    match its annotation.
    """
    decode = _DECODERS.get(record["type"])
    if decode is None:
        raise TypeError(f"unknown wire type {record['type']!r}")
    fields = record["fields"]
    if type(fields) is not dict:
        raise TypeError(
            f"{record['type']} fields must be an object, "
            f"got {type(fields).__name__}"
        )
    return decode(fields)


_register_wire_types()
