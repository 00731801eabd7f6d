"""Protocol message payloads.

Every overlay message travels through :class:`repro.sim.network.Network`
with a ``kind`` string (used for traffic breakdowns) and one of the frozen
dataclasses below as payload.  Sizes follow the paper's cost discussion:
control messages are small and constant; document transfers carry the
document size.
"""

from __future__ import annotations

import dataclasses

from repro.frozen import frozen_dataclass
from repro.overlay.metadata import DCRTEntry

__all__ = [
    "WIRE_TYPES",
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
    #: touched.
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
    """Probe from the failure detector (Section 6.1's liveness assumption
    made explicit): "are you there?".  ``target_id`` -1 (or the
    receiver's own id) means the receiver; any other id asks the
    receiver to forward this ping, unchanged, to that node (an indirect
    probe)."""

    probe_id: int
    prober_id: int
    target_id: int = -1


@frozen_dataclass
class Pong:
    """Probe reply, sent by the probed node straight to the prober: its
    sender is the node it proves alive."""

    probe_id: int


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


#: payload type name -> class: every dataclass this module exports
#: travels on the wire, laid out from its field annotations
#: (:mod:`repro.transport.wire`).
WIRE_TYPES: dict[str, type] = {
    name: globals()[name]
    for name in __all__
    if dataclasses.is_dataclass(globals().get(name))
}
