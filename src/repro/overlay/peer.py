"""Per-node protocol behaviour.

A :class:`Peer` is one live node in the simulated overlay.  It owns the
Figure 1 metadata (DT / DCRT / NRT), its stored documents, and per-category
hit counters, and implements the node-side of every protocol in the paper:

* the two-step query processing of Section 3.3 (serve locally, forward to
  cluster neighbours, loop-break on the query id, redirect queries for
  moved categories per the lazy-rebalancing protocol);
* the publish protocol of Section 6.2 (with the cluster-0 default for
  previously empty categories and moved-category retries);
* the join/leave protocol of Section 6.3 (including free-rider dummy
  publishes and leave notices);
* capability dissemination and leader election (Section 6.1.1);
* the Phase-1 monitoring tree: hit-counter aggregation with first-seen
  parent selection, duplicate suppression, and timeouts for dead children
  (Section 6.1.2);
* the node side of the lazy rebalancing protocol: metadata updates with
  move counters, paired document-group transfers, pull-on-demand for
  not-yet-transferred content, and piggybacked DCRT corrections;
* anti-entropy gossip of DCRT entries.

Peers interact with the rest of the world only through their
:class:`repro.transport.Transport` (messages, timers, and the clock) and
the :class:`PeerHooks` callback object (for things the experiment
harness wants to observe) — the same protocol code runs over the
discrete-event simulator and over real sockets (:mod:`repro.live`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro import obs
# Submodule import on purpose: ``repro.content`` re-exports from
# modules that import this package, so going through its __init__ here
# would close an import cycle.
from repro.content.chunks import CHUNK_REQUEST_ID_BASE, ContentConfig
from repro.durability import durable_state
from repro.overlay import messages as m
from repro.overlay.cache import DocumentCache
from repro.overlay.cluster import elect_leader
from repro.overlay.messages import DocInfo
from repro.overlay.metadata import DCRT, DCRTEntry, NRT, DocumentTable
from repro.reliability.channel import ReliabilityConfig, ReliableChannel
from repro.overlay.service import ServiceConfig, ServiceQueue
from repro.reliability.detector import FailureDetector
from repro.sim.network import Message
from repro.transport import ReliableTransport, Transport, as_transport

__all__ = ["DocInfo", "PeerConfig", "PeerHooks", "Peer"]

# Shared across all peers (process-wide totals); cached at import time so
# the hot paths pay one attribute call, not a registry lookup.
_TRACE = obs.TRACE
_C_QUERIES_ISSUED = obs.counter("overlay.queries_issued")
_C_QUERIES_SERVED = obs.counter("overlay.queries_served")
_C_QUERIES_FORWARDED = obs.counter("overlay.queries_forwarded")
_C_QUERIES_FAILED = obs.counter("overlay.queries_failed")
_C_GOSSIP_SENT = obs.counter("overlay.gossip_messages")
_C_QUERY_FAILOVERS = obs.counter("reliability.query_failovers")
#: total loop-detection entries across all peers (leak watchdog).
_G_SEEN_QUERIES = obs.gauge("overlay.seen_query_entries")

_NO_SUSPECTS: frozenset[int] = frozenset()


@dataclass(frozen=True, slots=True)
class PeerConfig:
    """Tunables for peer behaviour."""

    nrt_capacity: int = 128
    #: number of known cluster members a publish announcement reaches.
    publish_fanout: int = 8
    #: retries when a publish reply redirects to a moved category's cluster.
    max_publish_retries: int = 8
    #: simulated-time budget for a monitoring subtree before giving up on
    #: missing children.
    monitoring_timeout: float = 5.0
    #: upper bound on the stagger applied to scheduled group transfers
    #: ("the first opportune time", Section 6.1.2 step 2).
    transfer_stagger: float = 2.0
    #: requester-side query cache (future-work item viii): number of
    #: retrieved documents kept as servable replicas, policy-evicted.
    #: 0 disables caching.
    cache_capacity: int = 0
    #: cache replacement policy; see :data:`repro.overlay.cache.CACHE_POLICIES`.
    cache_policy: str = "lru"
    #: most-recent query ids remembered for loop detection; bounds what
    #: used to be unbounded growth over long runs.
    seen_query_capacity: int = 4096
    #: ack/retry channel, query failover, and failure-detector knobs
    #: (off by default — protocols stay fire-and-forget).
    reliability: ReliabilityConfig = ReliabilityConfig()
    #: per-peer service model: finite service rate, bounded intake queue,
    #: and admission control (off by default — serving stays instant).
    service: ServiceConfig = ServiceConfig()
    #: content data plane: chunked transfer, multi-source fetch, repair
    #: loops (off by default — documents stay metadata-only tokens).
    content: ContentConfig = ContentConfig()


@dataclass(frozen=True, slots=True)
class MisbehaviorConfig:
    """How an armed peer misbehaves (scenario-engine fault injection).

    ``bogus_responses``
        Answer every query with a fabricated document id and *no*
        matching metadata.  Honest servers always ship one ``DocInfo``
        per claimed doc (they serve from their own store), so the
        requester-side integrity check rejects these without settling
        the query — an armed failover deadline retries other members.
    ``forge_infos``
        Harden the bogus responses with complete fabricated metadata so
        they pass the requester-side check.  Exists so tests can prove
        the system-level ``response-integrity`` invariant catches what
        the local check cannot.
    ``stale_gossip``
        Replay the DCRT digest captured at arming time in every
        outgoing gossip push, forever.  Receivers ignore stale entries
        by move-counter ordering, and the armed peer still merges
        incoming corrections, so the damage is bounded to wasted bytes.
    """

    bogus_responses: bool = False
    forge_infos: bool = False
    stale_gossip: bool = False
    #: fabricated doc ids start here, far above any real document.
    bogus_doc_base: int = 10_000_000


class PeerHooks:
    """Observation callbacks; the default implementation ignores everything.

    The experiment harness (:class:`repro.overlay.system.P2PSystem`)
    overrides what it needs — e.g. recording query responses or learning
    that a peer joined a cluster so the cluster graph can be updated.
    """

    def on_query_response(self, peer: "Peer", response: m.QueryResponse) -> None:
        """A response for a query this peer originated arrived."""

    def on_query_failed(self, peer: "Peer", query_id: int, reason: str) -> None:
        """A query could not even be dispatched (no live target known)."""

    def on_bogus_response(self, peer: "Peer", response: m.QueryResponse) -> None:
        """The peer rejected a response that failed the integrity check."""

    def on_document_stored(self, peer: "Peer", doc_id: int) -> None:
        """A peer stored a document (contribution, replica, or transfer)."""

    def on_document_dropped(self, peer: "Peer", doc_id: int) -> None:
        """A peer dropped a stored document."""

    def on_request_served(self, peer: "Peer") -> None:
        """The peer answered a query (its ``requests_served`` advanced)."""

    def lookup_holders(
        self, peer: "Peer", cluster_id: int, doc_id: int
    ) -> tuple[int, ...]:
        """Cluster metadata lookup: which cluster nodes store ``doc_id``.

        Models the Section 3.1 cluster metadata "describing which documents
        are stored by which cluster nodes" (kept at every node or at super
        peers).  The default implementation knows nothing.
        """
        return ()

    def on_cluster_joined(self, peer: "Peer", cluster_id: int) -> None:
        """The peer became a member of a cluster (via publish or join)."""

    def on_monitoring_complete(
        self, peer: "Peer", cluster_id: int, round_id: int,
        counts: dict[int, int], weights: dict[int, float], subtree_size: int,
    ) -> None:
        """A leader finished aggregating its cluster's hit counters."""

    def on_load_report(self, peer: "Peer", report: m.LoadReport) -> None:
        """A leader received another cluster's load report."""

    def on_transfer_complete(
        self, peer: "Peer", category_id: int, doc_ids: tuple[int, ...]
    ) -> None:
        """A document-group transfer landed at this peer."""

    def on_leave_notice(self, peer: "Peer", notice: m.LeaveNotice) -> None:
        """A cluster fellow announced departure."""


@dataclass(slots=True)
class _MonitoringRound:
    """Per-round state of the Phase-1 hit-counter aggregation."""

    round_id: int
    cluster_id: int
    parent_id: int  # own id when this peer is the aggregation root
    pending_children: int
    counts: dict[int, int]
    weights: dict[int, float]
    subtree_size: int = 1
    finished: bool = False


@dataclass(slots=True)
class _QueryAttempt:
    """Failover state of a query this peer originated (reliability on).

    ``tried`` accumulates dispatch targets so each deadline expiry
    retries against a *different* NRT member of the target cluster.
    """

    query_id: int
    category_id: int
    m_results: int
    target_doc_id: int
    tried: set[int] = field(default_factory=set)
    attempts: int = 0
    settled: bool = False


@dataclass(slots=True)
class _PendingTransfer:
    """A document group owed to this peer by its paired source node."""

    category_id: int
    source_id: int
    requested: bool = False
    #: queries waiting for the content (pull-on-demand, lazy step 4).
    waiting_queries: list[m.QueryMessage] = field(default_factory=list)


class Peer:
    """One live node of the overlay.

    Parameters
    ----------
    node_id, capacity_units:
        Identity and processing capacity (Section 4.3.1 units).
    rng:
        Protocol randomness (random target selection, gossip partners).
    hooks:
        Observation callbacks.
    config:
        Behaviour tunables.
    jitter_rng:
        Named stream for retry-backoff jitter; consulted only when a
        retransmission actually fires, so loss-free runs never touch it.
    transport:
        The world this peer lives in (keyword-only, required):
        :class:`repro.transport.SimTransport` — or a simulated
        ``Network``, coerced via ``as_transport`` — for the simulator,
        :class:`repro.live.AsyncioTransport` for sockets.  The peer
        registers its handler on creation.
    """

    def __init__(
        self,
        node_id: int,
        capacity_units: float,
        rng: np.random.Generator | None = None,
        hooks: PeerHooks | None = None,
        config: PeerConfig | None = None,
        jitter_rng: np.random.Generator | None = None,
        *,
        transport: Transport,
    ) -> None:
        if rng is None:
            raise TypeError("Peer requires an rng")
        base = as_transport(transport)
        self.node_id = node_id
        self.capacity_units = capacity_units
        #: the world seam every send, timer, and clock read goes through;
        #: rebound below to the reliability wrapper when acks are on.
        self.transport: Transport = base
        self.rng = rng
        self.hooks = hooks if hooks is not None else PeerHooks()
        self.config = config if config is not None else PeerConfig()

        self.dt = DocumentTable()
        self.dcrt = DCRT()
        self.nrt = NRT(max_nodes_per_cluster=self.config.nrt_capacity)
        #: documents stored locally, with their metadata.
        self.docs: dict[int, DocInfo] = {}
        #: clusters this node is a member of.
        self.memberships: set[int] = set()
        #: cluster id -> neighbour node ids in the cluster graph.
        self.cluster_neighbors: dict[int, set[int]] = {}
        #: per-category requests served (the paper's load measure).
        self.hit_counters: dict[int, int] = {}
        self.requests_served = 0
        #: doc queries this node *routed* (metadata lookups / redirects)
        #: without serving content — the super peer's directory workload.
        self.queries_routed = 0
        #: capability knowledge per cluster (Section 6.1.1 gossip).
        self.known_capabilities: dict[int, dict[int, float]] = {}
        self.believed_leader: dict[int, int] = {}
        #: cluster id -> super-peer node holding the cluster metadata, when
        #: the deployment runs in super-peer mode (Section 3's hybrid
        #: alternative); empty in the fully-replicated-metadata mode.
        self.super_peers: dict[int, int] = {}
        #: category -> highest ownership epoch this peer has adopted.
        #: Epochs fence ReassignNotices when durability is armed (all
        #: zero otherwise — the legacy unfenced protocol).
        self.ownership_epochs: dict[int, int] = {}
        #: durability journal (None unless the deployment attaches one).
        self._journal = None
        #: True between a power loss (memory wiped) and the replay that
        #: restores durable state on recovery.
        self._lost_memory = False

        #: reliable delivery: both halves of the ack/retry protocol plus
        #: the heartbeat failure detector.  Constructed unconditionally —
        #: the receiver side (ack + dedup) must work even when this peer
        #: does not itself send reliably; the sender side only engages
        #: when ``config.reliability.enabled``.
        self._reliability = self.config.reliability
        self.channel = ReliableChannel(
            node_id,
            base,
            self._reliability,
            jitter_rng=jitter_rng,
            on_give_up=self._on_delivery_give_up,
        )
        self.detector = FailureDetector(node_id, base, self._reliability)
        if self._reliability.enabled:
            # Reliability composes as a transport wrapper: kinds wanting
            # ack/retry route through the channel, the rest pass straight
            # to the base transport — one send path either way.
            self.transport = ReliableTransport(base, self.channel)
        #: bounded service queue in front of query processing; None keeps
        #: the historical instant-serve behaviour (and registers none of
        #: the overload metrics).
        self._service = (
            ServiceQueue(self, self.config.service)
            if self.config.service.enabled
            else None
        )
        #: chunk-protocol endpoint (content data plane); None keeps
        #: documents as metadata-only tokens with zero extra state.
        if self.config.content.enabled:
            # Runtime import: repro.content.fetcher imports this module's
            # package at load time, so binding it here breaks the cycle.
            from repro.content.fetcher import PeerContent

            self._content = PeerContent(self, self.config.content)
        else:
            self._content = None

        #: recently seen query ids (loop detection), LRU-bounded.
        self._seen_queries: "OrderedDict[int, None]" = OrderedDict()
        #: query id -> failover state for queries this peer originated.
        self._query_attempts: dict[int, _QueryAttempt] = {}
        #: (src, delivery_id) -> times the protocol handler ran for it;
        #: the exactly-once chaos invariant asserts every count is 1.
        self._applied_counts: "OrderedDict[tuple[int, int], int]" = OrderedDict()
        self._monitoring: dict[tuple[int, int], _MonitoringRound] = {}
        self._publish_retries: dict[tuple[int, int], int] = {}
        #: category -> transfer owed to us during a category move.
        self._pending_transfers: dict[int, _PendingTransfer] = {}
        #: category -> destination partners this node (as a source) must
        #: split its document group across.
        self._transfer_partners: dict[int, tuple[int, ...]] = {}
        #: category -> documents the coordinator designated this node to
        #: ship (deduplicates replicated content across source nodes).
        self._designated_docs: dict[int, tuple[int, ...]] = {}
        #: requester-side cache of retrieved (servable) documents; see
        #: PeerConfig.cache_capacity / cache_policy.
        self._cache = DocumentCache(
            self.config.cache_capacity, self.config.cache_policy
        )
        #: (cluster, round) probes awaiting a leader's liveness reply.
        self._pending_probes: set[tuple[int, int]] = set()
        #: armed misbehavior mode (scenario fault injection); None = honest.
        self.misbehavior: MisbehaviorConfig | None = None
        #: DCRT digest frozen at arming time (stale_gossip mode).
        self._stale_gossip_digest: tuple | None = None

        self._dispatch = {
            "query": self._handle_query,
            "query_response": self._handle_query_response,
            "busy": self._handle_busy,
            "publish_request": self._handle_publish_request,
            "publish_reply": self._handle_publish_reply,
            "join_request": self._handle_join_request,
            "join_reply": self._handle_join_reply,
            "leave_notice": self._handle_leave_notice,
            "capability": self._handle_capability,
            "hit_count_request": self._handle_hit_count_request,
            "hit_count_reply": self._handle_hit_count_reply,
            "load_report": self._handle_load_report,
            "leader_probe": self._handle_leader_probe,
            "leader_probe_reply": self._handle_leader_probe_reply,
            "reassign_notice": self._handle_reassign_notice,
            "transfer_request": self._handle_transfer_request,
            "transfer_data": self._handle_transfer_data,
            "gossip": self._handle_gossip,
            "gossip_reply": self._handle_gossip_reply,
            "ack": self._handle_ack,
            "ping": self._handle_ping,
            "pong": self._handle_pong,
            "chunk_request": self._handle_chunk_request,
            "chunk_data": self._handle_chunk_data,
            "chunk_repair": self._handle_chunk_repair,
            "manifest_update": self._handle_manifest_update,
        }
        base.register(node_id, self.handle_message)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        """Network entry point: ack/dedup reliable traffic, then dispatch."""
        self.detector.note_alive(message.src)
        if self.channel.observe(message):
            return  # duplicate of an already-applied reliable delivery
        if message.delivery_id >= 0:
            key = (message.src, message.delivery_id)
            previous = self._applied_counts.get(key)
            self._applied_counts[key] = 1 if previous is None else previous + 1
            if previous is None:
                while len(self._applied_counts) > self._reliability.dedup_capacity:
                    self._applied_counts.popitem(last=False)
        handler = self._dispatch.get(message.kind)
        if handler is None:
            raise ValueError(f"peer {self.node_id}: unknown kind {message.kind!r}")
        handler(message)

    def arm_misbehavior(self, config: MisbehaviorConfig) -> None:
        """Switch this peer into a misbehaving mode (scenario injection).

        For ``stale_gossip`` the current DCRT snapshot is frozen now and
        replayed in every future gossip push; the peer's *own* DCRT keeps
        merging honestly, so only its outgoing digests lie.
        """
        self.misbehavior = config
        if config.stale_gossip:
            self._stale_gossip_digest = tuple(self.dcrt.snapshot().items())

    def _send(self, dst: int, kind: str, payload, size: int = m.CONTROL_SIZE) -> None:
        # One send path for every configuration: the reliability branch
        # lives in the transport stack (ReliableTransport), not here.
        self.transport.send(self.node_id, dst, kind, payload, size_bytes=size)

    def _on_delivery_give_up(self, dst: int, kind: str) -> None:
        """A reliable delivery exhausted its attempts: evidence of death."""
        self.detector.note_missed(dst)

    def suspects(self) -> frozenset[int] | set[int]:
        """Nodes the failure detector currently believes dead."""
        if self._reliability.enabled and self.detector.suspects:
            return self.detector.suspects
        return _NO_SUSPECTS

    def _handle_ack(self, message: Message) -> None:
        self.channel.handle_ack(message.payload)

    def _handle_ping(self, message: Message) -> None:
        ping: m.Ping = message.payload
        self._send(
            ping.prober_id,
            "pong",
            m.Pong(probe_id=ping.probe_id, responder_id=self.node_id),
        )

    def _handle_pong(self, message: Message) -> None:
        self.detector.handle_pong(message.payload)

    # ------------------------------------------------------------------
    # content data plane (chunk protocol; see repro.content)
    # ------------------------------------------------------------------
    @property
    def content_state(self) -> PeerContent | None:
        """This peer's chunk-protocol endpoint (None when disabled)."""
        return self._content

    def _handle_chunk_request(self, message: Message) -> None:
        if self._content is None:
            return  # data plane disabled here; the request is lost
        request: m.ChunkRequest = message.payload
        if self._service is not None:
            # Chunk serving is member-side work like query serving: it
            # pays admission control and byte-proportional service time.
            self._service.offer(request)
            return
        self._content.serve_chunk(request)

    def _handle_chunk_data(self, message: Message) -> None:
        if self._content is not None:
            self._content.handle_chunk_data(message.payload)

    def _handle_chunk_repair(self, message: Message) -> None:
        if self._content is not None:
            self._content.handle_chunk_repair(message.payload)

    def _handle_manifest_update(self, message: Message) -> None:
        if self._content is not None:
            self._content.handle_manifest_update(message.payload)

    def heartbeat_once(self) -> None:
        """One failure-detector round: ping a few known contacts.

        Round-driven (see ``P2PSystem.run_failure_detector_rounds``)
        rather than self-scheduling, so run-to-quiescence callers still
        drain.  Targets are drawn from the same pool gossip uses: cluster
        neighbours first, NRT contacts as the fallback.
        """
        partners: set[int] = set()
        for neighbors in self.cluster_neighbors.values():
            partners |= neighbors
        if not partners:
            for cluster_id in self.nrt.clusters():
                partners.update(self.nrt.nodes_in(cluster_id))
        partners.discard(self.node_id)
        if not partners:
            return
        pool = sorted(partners)
        fanout = min(self._reliability.probe_fanout, len(pool))
        for index in self.rng.permutation(len(pool))[:fanout]:
            self.detector.probe(pool[int(index)])

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    def store_document(self, info: DocInfo) -> None:
        """Store a document locally (contribution, replica, or transfer)."""
        self.docs[info.doc_id] = info
        self.dt.add(info.doc_id, info.categories)
        # Write-ahead: the store is journaled before any hook can
        # acknowledge it to the rest of the deployment.
        if self._journal is not None:
            self._journal.record(
                "store", info.doc_id, info.size_bytes, list(info.categories)
            )
        self.hooks.on_document_stored(self, info.doc_id)

    def drop_document(self, doc_id: int) -> None:
        held = self.docs.pop(doc_id, None) is not None
        self.dt.remove(doc_id)
        if held:
            # Apply, then journal (as ``store_document`` does): a record
            # that triggers compaction snapshots the state it describes.
            if self._journal is not None:
                self._journal.record("drop", doc_id)
            self.hooks.on_document_dropped(self, doc_id)

    def stored_bytes(self) -> int:
        return sum(info.size_bytes for info in self.docs.values())

    def pull_documents(
        self, source_id: int, category_id: int, doc_ids: Iterable[int]
    ) -> None:
        """Pull specific documents from a holder (replica placement).

        Used by the demand-adaptive replication manager: the source
        answers with ``transfer_data`` sized as the documents' content, so
        creating a replica pays real transfer bytes — and the arriving
        copies register in the holder directory via ``store_document``.
        """
        self._send(
            source_id,
            "transfer_request",
            m.TransferRequest(
                category_id=category_id,
                requester_id=self.node_id,
                doc_ids=tuple(doc_ids),
            ),
        )

    # ------------------------------------------------------------------
    # introspection (read-only views for invariant checkers)
    # ------------------------------------------------------------------
    def doc_ids(self) -> list[int]:
        """Sorted ids of all locally stored documents."""
        return sorted(self.docs)

    def dcrt_items(self) -> list[tuple[int, DCRTEntry]]:
        """Sorted ``(category_id, entry)`` pairs of the local DCRT."""
        return self.dcrt.items()

    def reliable_application_counts(self) -> dict[tuple[int, int], int]:
        """Copy of the (src, delivery_id) -> handler-run counts window.

        Exactly-once effects under at-least-once delivery means every
        count is 1; the chaos invariant checker asserts exactly that.
        """
        return dict(self._applied_counts)

    def seen_query_count(self) -> int:
        """Current size of the bounded loop-detection window."""
        return len(self._seen_queries)

    def transfer_backlog(self) -> dict[int, int]:
        """Category -> number of queries parked on a pending transfer.

        Non-empty entries at quiescence mean a transfer pull was lost and
        the queries it was holding will never be answered — exactly the
        kind of leak the chaos harness watches for.
        """
        return {
            category_id: len(pending.waiting_queries)
            for category_id, pending in sorted(self._pending_transfers.items())
            if pending.waiting_queries
        }

    def service_snapshot(self) -> dict | None:
        """Service-queue accounting, or None when the model is disabled."""
        return None if self._service is None else self._service.snapshot()

    def cache_stats(self) -> dict:
        """Public accounting view of the requester-side cache.

        Always available (zeros when caching is disabled); the replica
        manager and the caching experiments read demand signals from here
        instead of reaching into private state.
        """
        return self._cache.stats()

    def cache_owns(self, doc_id: int) -> bool:
        """True when ``doc_id`` is held as an evictable cached copy."""
        return self._cache.owns(doc_id)

    def cache_promote(self, doc_id: int) -> bool:
        """Pin a cached copy: keep the stored document, stop tracking it
        as evictable.

        Used by the replication manager to convert a transient cached
        copy into a managed replica without re-shipping bytes the node
        already holds.  Returns False when the document is not
        cache-owned (nothing changes).
        """
        return self._cache.discard(doc_id)

    def handle_crash(self) -> None:
        """The host crashed: shed all accepted service-queue work.

        Called by the deployment (``P2PSystem.crash_node``) at the moment
        of the crash — a dead node must not keep a scheduled service
        completion armed or hold admitted queries forever.
        """
        if self._service is not None:
            self._service.on_crash()
        if self._content is not None:
            self._content.on_crash()

    def clear_failure_state(self) -> None:
        """Forget pre-crash liveness evidence; called when this node heals.

        While the node was crashed its already-armed retry and probe
        timers kept firing with no acks or pongs able to arrive, so it
        accrued suspicion of peers that were fine all along.  Rejoining
        with that stale suspect set would make the healed node silently
        drop queries it should forward (NRT selection excludes suspects).
        """
        self.detector.reset()
        self.channel.cancel_all()

    def join_cluster(self, cluster_id: int, known_members: Iterable[int] = ()) -> None:
        """Become a member of ``cluster_id`` and learn some fellows."""
        newly = cluster_id not in self.memberships
        self.memberships.add(cluster_id)
        self.nrt.add(cluster_id, self.node_id)
        self.nrt.add_many(cluster_id, known_members)
        self.cluster_neighbors.setdefault(cluster_id, set())
        capabilities = self.known_capabilities.setdefault(cluster_id, {})
        capabilities[self.node_id] = self.capacity_units
        if newly:
            if self._journal is not None:
                self._journal.record("join", cluster_id)
            self.hooks.on_cluster_joined(self, cluster_id)

    def set_cluster_neighbors(self, cluster_id: int, neighbors: Iterable[int]) -> None:
        self.cluster_neighbors[cluster_id] = set(neighbors) - {self.node_id}

    # ------------------------------------------------------------------
    # durability (repro.durability): journal hookup, power loss, recovery
    # ------------------------------------------------------------------
    @property
    def journal(self):
        """This peer's durability journal (None when durability is off)."""
        return self._journal

    def attach_journal(self, journal) -> None:
        """Arm durability: every future durable change is journaled.

        The journal's snapshot callback is bound to this peer's live
        state, and a baseline snapshot is compacted immediately so a
        power loss right after attach still recovers the bootstrap
        state.
        """
        self._journal = journal
        journal.snapshot_fn = lambda: durable_state(self, journal.flags)
        self.dcrt.on_change = self._journal_dcrt_change
        if self._content is not None:
            self._content.on_manifest = self._journal_manifest
        journal.compact()

    def _journal_dcrt_change(self, category_id: int, entry: DCRTEntry) -> None:
        if self._journal is not None:
            self._journal.record(
                "dcrt", category_id, entry.cluster_id, entry.move_counter
            )

    def _journal_manifest(self, doc_id: int, manifest) -> None:
        if self._journal is not None:
            self._journal.record(
                "manifest",
                doc_id,
                manifest.size_bytes,
                manifest.chunk_size,
                manifest.version,
            )

    def lose_power(self) -> None:
        """Amnesia crash: volatile memory is gone; the disk survives.

        Called by ``P2PSystem.power_loss`` after ``handle_crash``.  What
        survives is exactly what lives on disk — the journal, partially
        fetched chunks, and chunk-corruption marks.  Documents are shed
        through ``drop_document`` so deployment hooks keep the holder
        directory consistent, but with the journal detached for the
        wipe: losing memory is not an acknowledged drop.
        """
        journal, self._journal = self._journal, None
        try:
            for doc_id in list(self.docs):
                self.drop_document(doc_id)
        finally:
            self._journal = journal
        self.dcrt = DCRT(
            on_change=self._journal_dcrt_change if journal is not None else None
        )
        self.nrt = NRT(max_nodes_per_cluster=self.config.nrt_capacity)
        self.memberships.clear()
        self.cluster_neighbors.clear()
        self.hit_counters.clear()
        self.requests_served = 0
        self.queries_routed = 0
        self.known_capabilities.clear()
        self.believed_leader.clear()
        self.super_peers.clear()
        self.ownership_epochs.clear()
        self._seen_queries.clear()
        self._query_attempts.clear()
        self._applied_counts.clear()
        self._monitoring.clear()
        self._publish_retries.clear()
        self._pending_transfers.clear()
        self._transfer_partners.clear()
        self._designated_docs.clear()
        self._cache = DocumentCache(
            self.config.cache_capacity, self.config.cache_policy
        )
        self._pending_probes.clear()
        self._stale_gossip_digest = None
        self.detector.reset()
        self.channel.lose_memory()
        if self._content is not None:
            self._content.lose_power()
        self._lost_memory = True

    @property
    def lost_memory(self) -> bool:
        """True while this peer awaits a durable-state replay."""
        return self._lost_memory

    def restore_durable_state(self, state: dict) -> None:
        """Replay a materialized snapshot+WAL state after a power loss.

        The journal is detached for the replay — restoring already
        durable state must not re-journal it (a crash loop would grow
        the log unboundedly).  Hooks still fire so the deployment's
        holder directory and membership views heal alongside the peer.
        """
        journal, self._journal = self._journal, None
        try:
            for doc_id, size_bytes, categories in state["docs"]:
                self.store_document(
                    DocInfo(
                        doc_id=doc_id,
                        categories=tuple(categories),
                        size_bytes=size_bytes,
                    )
                )
            for category_id, cluster_id, counter in state["dcrt"]:
                self.dcrt.set(category_id, cluster_id, counter)
            for category_id, epoch in state["epochs"]:
                self.ownership_epochs[category_id] = epoch
            for cluster_id in state["memberships"]:
                self.join_cluster(cluster_id)
            if self._content is not None and state["manifests"]:
                # Runtime import mirrors the PeerContent construction in
                # __init__ (repro.content imports this package).
                from repro.content.manifest import build_manifest

                for doc_id, size_bytes, chunk_size, version in state[
                    "manifests"
                ]:
                    self._content.manifests[doc_id] = build_manifest(
                        doc_id, size_bytes, chunk_size, version=version
                    )
        finally:
            self._journal = journal
        self._lost_memory = False

    # ------------------------------------------------------------------
    # queries (Section 3.3)
    # ------------------------------------------------------------------
    def start_query(
        self,
        query_id: int,
        category_id: int,
        m_results: int,
        target_doc_id: int = -1,
    ) -> None:
        """Step 1 of query processing, at the requesting node.

        Maps the (pre-categorized) query to its cluster via the DCRT, picks
        a random cluster node via the NRT, and dispatches.  Fails when no
        member of the cluster is known — "if no live node exists, the query
        will fail".  With ``target_doc_id`` set, the query asks for a
        specific document (the retrieval case); otherwise it asks for up to
        ``m_results`` documents of the category.
        """
        if m_results < 1:
            raise ValueError(f"m_results must be >= 1, got {m_results}")
        cluster_id = self.dcrt.cluster_of(category_id)
        _C_QUERIES_ISSUED.value += 1
        if _TRACE.enabled:
            _TRACE.emit(
                "query_issue",
                t=self.transport.now,
                node=self.node_id,
                query=query_id,
                category=category_id,
            )
        if self._reliability.enabled:
            state = _QueryAttempt(
                query_id=query_id,
                category_id=category_id,
                m_results=m_results,
                target_doc_id=target_doc_id,
            )
            self._query_attempts[query_id] = state
            self._try_query(state)
            return
        target = self.nrt.random_node(cluster_id, self.rng)
        if target is None:
            self._fail_query(query_id, "no-known-member")
            return
        message = m.QueryMessage(
            query_id=query_id,
            requester_id=self.node_id,
            category_id=category_id,
            remaining=m_results,
            hops=1,
            target_cluster=cluster_id,
            target_doc_id=target_doc_id,
        )
        self._send(target, "query", message)

    def _fail_query(self, query_id: int, reason: str) -> None:
        _C_QUERIES_FAILED.value += 1
        if _TRACE.enabled:
            _TRACE.emit(
                "query_fail",
                t=self.transport.now,
                node=self.node_id,
                query=query_id,
                reason=reason,
            )
        self.hooks.on_query_failed(self, query_id, reason)

    def _try_query(self, state: _QueryAttempt) -> None:
        """One failover dispatch attempt, with an end-to-end deadline.

        The target cluster is re-read from the DCRT each attempt (the
        category may have moved between attempts).  Targets exclude both
        already-tried nodes and the failure detector's suspects; if that
        empties the candidate set, the exclusions are relaxed in order —
        wrong suspicion must not fail a query a plain retry could save.
        """
        cluster_id = self.dcrt.cluster_of(state.category_id)
        suspects = self.suspects()
        avoid = state.tried | suspects if suspects else state.tried
        target = self.nrt.random_node(cluster_id, self.rng, exclude=avoid)
        if target is None and state.tried:
            target = self.nrt.random_node(cluster_id, self.rng, exclude=suspects)
        if target is None and suspects:
            target = self.nrt.random_node(cluster_id, self.rng)
        if target is None:
            self._query_attempts.pop(state.query_id, None)
            self._fail_query(state.query_id, "no-known-member")
            return
        state.tried.add(target)
        state.attempts += 1
        armed_attempts = state.attempts
        self._send(
            target,
            "query",
            m.QueryMessage(
                query_id=state.query_id,
                requester_id=self.node_id,
                category_id=state.category_id,
                remaining=state.m_results,
                hops=1,
                target_cluster=cluster_id,
                target_doc_id=state.target_doc_id,
            ),
        )

        def on_deadline() -> None:
            current = self._query_attempts.get(state.query_id)
            if current is not state or state.settled:
                return  # answered, failed, or superseded
            if state.attempts != armed_attempts:
                return  # a BUSY-triggered failover already re-dispatched
            if state.attempts >= self._reliability.query_attempts:
                self._query_attempts.pop(state.query_id, None)
                self._fail_query(state.query_id, "deadline-exhausted")
                return
            _C_QUERY_FAILOVERS.value += 1
            if _TRACE.enabled:
                _TRACE.emit(
                    "query_failover",
                    t=self.transport.now,
                    node=self.node_id,
                    query=state.query_id,
                    attempt=state.attempts,
                )
            self._try_query(state)

        self.transport.schedule(self._reliability.query_deadline, on_deadline)

    def _handle_query(self, message: Message) -> None:
        """Step 2, at a target node: serve, redirect, or forward."""
        query: m.QueryMessage = message.payload
        if query.query_id in self._seen_queries:
            self._seen_queries.move_to_end(query.query_id)
            return  # loop broken via idQ (Section 3.3, step 2b)
        self._seen_queries[query.query_id] = None
        _G_SEEN_QUERIES.value += 1
        while len(self._seen_queries) > self.config.seen_query_capacity:
            self._seen_queries.popitem(last=False)
            _G_SEEN_QUERIES.value -= 1

        if self.misbehavior is not None and self.misbehavior.bogus_responses:
            self._send_bogus_response(query)
            return

        entry = self.dcrt.entry(query.category_id)
        serving_cluster = entry.cluster_id
        if serving_cluster not in self.memberships:
            # This node no longer serves the category (it moved, or the
            # requester's NRT was stale): forward toward the cluster the
            # local DCRT names (lazy-rebalancing step 3).  The requester's
            # original believed cluster stays in the message so the serving
            # node can piggyback the metadata correction (step 4).
            target = self.nrt.random_node(
                serving_cluster, self.rng, exclude=self.suspects()
            )
            if target is not None:
                _C_QUERIES_FORWARDED.value += 1
                self._send(
                    target,
                    "query",
                    m.QueryMessage(
                        query_id=query.query_id,
                        requester_id=query.requester_id,
                        category_id=query.category_id,
                        remaining=query.remaining,
                        hops=query.hops + 1,
                        target_cluster=query.target_cluster,
                        target_doc_id=query.target_doc_id,
                    ),
                )
            return

        if self._service is not None:
            # Member-side work (serving, replica lookups, graph fan-out)
            # costs service time and intake-queue admission; the routing
            # above stays instant — forwarding is cheap, serving is not.
            self._service.offer(query)
            return
        self._process_query(query)

    def _process_query(self, query: m.QueryMessage) -> None:
        """Member-side query work: serve, redirect over metadata, or fan out.

        With the service model enabled this runs at service *completion*
        (after queueing delay plus ``1/capacity_units`` service time);
        otherwise it runs inline, exactly as it historically did.
        """
        if isinstance(query, m.ChunkRequest):
            # Chunk serving admitted through the service queue completes
            # here, after queueing delay and byte-proportional service.
            if self._content is not None:
                self._content.serve_chunk(query)
            return

        entry = self.dcrt.entry(query.category_id)
        pending = self._pending_transfers.get(query.category_id)

        if query.target_doc_id >= 0:
            # Document retrieval: serve locally, wait for an in-flight
            # transfer, or locate a replica holder via cluster metadata.
            if self.dt.has_document(query.target_doc_id):
                self._serve_docs(query, (query.target_doc_id,), entry)
            elif pending is not None:
                pending.waiting_queries.append(query)
                self._request_transfer(
                    pending, urgent=True, doc_id=query.target_doc_id
                )
            else:
                holders = [
                    holder
                    for holder in self.hooks.lookup_holders(
                        self, entry.cluster_id, query.target_doc_id
                    )
                    if holder != self.node_id
                ]
                forwarded = m.QueryMessage(
                    query_id=query.query_id,
                    requester_id=query.requester_id,
                    category_id=query.category_id,
                    remaining=query.remaining,
                    hops=query.hops + 1,
                    target_cluster=query.target_cluster,
                    target_doc_id=query.target_doc_id,
                )
                if holders:
                    choice = holders[int(self.rng.integers(0, len(holders)))]
                    self.queries_routed += 1
                    self._send(choice, "query", forwarded)
                else:
                    # Super-peer mode: this node holds no cluster metadata;
                    # route the query to the cluster's super peer, which
                    # does (one extra hop — the hybrid trade-off).
                    super_peer = self.super_peers.get(entry.cluster_id)
                    if super_peer is not None and super_peer != self.node_id:
                        self.queries_routed += 1
                        self._send(super_peer, "query", forwarded)
            return

        matched = self.dt.docs_in_category(query.category_id)
        if not matched and pending is not None:
            # Destination of an in-flight move without the content yet:
            # pull from the coupled source node, then answer (lazy step 4).
            pending.waiting_queries.append(query)
            self._request_transfer(pending, urgent=True)
            return

        self._serve_and_forward(query, matched, entry)

    def _serve_docs(
        self,
        query: m.QueryMessage,
        doc_ids: tuple[int, ...],
        entry: DCRTEntry,
    ) -> None:
        """Answer the requester with ``doc_ids`` and account the load.

        The response carries the documents themselves (sized as their
        content), so the requester can cache them.
        """
        self.requests_served += 1
        self.hit_counters[query.category_id] = (
            self.hit_counters.get(query.category_id, 0) + 1
        )
        if len(self._cache):
            for doc_id in doc_ids:
                if self._cache.owns(doc_id):
                    self._cache.served_hits += 1
        self.hooks.on_request_served(self)
        _C_QUERIES_SERVED.value += 1
        if _TRACE.enabled:
            _TRACE.emit(
                "query_serve",
                t=self.transport.now,
                node=self.node_id,
                query=query.query_id,
                hops=query.hops,
                docs=len(doc_ids),
            )
        updates: tuple[tuple[int, DCRTEntry], ...] = ()
        if query.target_cluster != entry.cluster_id:
            # The requester routed on a stale mapping; piggyback the
            # correction (lazy-rebalancing step 4).
            updates = ((query.category_id, entry),)
        infos = tuple(
            self.docs[doc_id] for doc_id in doc_ids if doc_id in self.docs
        )
        payload_bytes = sum(info.size_bytes for info in infos)
        self._send(
            query.requester_id,
            "query_response",
            m.QueryResponse(
                query_id=query.query_id,
                doc_ids=doc_ids,
                responder_id=self.node_id,
                hops=query.hops,
                dcrt_updates=updates,
                doc_infos=infos,
            ),
            size=max(payload_bytes, m.CONTROL_SIZE),
        )

    def _serve_and_forward(
        self,
        query: m.QueryMessage,
        matched: list[int],
        entry: DCRTEntry,
    ) -> None:
        served = tuple(matched[: query.remaining])
        if served:
            self._serve_docs(query, served, entry)
        remaining = query.remaining - len(served)
        if remaining > 0:
            neighbors = self.cluster_neighbors.get(entry.cluster_id, ())
            if neighbors:
                _C_QUERIES_FORWARDED.value += len(neighbors)
            for neighbor in neighbors:
                self._send(
                    neighbor,
                    "query",
                    m.QueryMessage(
                        query_id=query.query_id,
                        requester_id=query.requester_id,
                        category_id=query.category_id,
                        remaining=remaining,
                        hops=query.hops + 1,
                        target_cluster=query.target_cluster,
                    ),
                )

    def _send_bogus_response(self, query: m.QueryMessage) -> None:
        """Answer with fabricated content (armed ``bogus_responses`` mode).

        The fabricated doc id is claimed in ``doc_ids`` but — unless
        ``forge_infos`` hardens the lie — no matching ``DocInfo`` ships,
        which is exactly the asymmetry the requester-side integrity
        check rejects (an honest server serves from its own store, so
        its metadata always covers every claimed doc).
        """
        mis = self.misbehavior
        fake_doc_id = mis.bogus_doc_base + query.query_id
        infos: tuple[DocInfo, ...] = ()
        if mis.forge_infos:
            infos = (
                DocInfo(
                    doc_id=fake_doc_id,
                    categories=(query.category_id,),
                    size_bytes=m.CONTROL_SIZE,
                ),
            )
        # Lazily registered: honest worlds never reach this path, so the
        # counter stays out of their metric snapshots (and goldens).
        obs.counter("overlay.bogus_responses_sent").inc()
        self._send(
            query.requester_id,
            "query_response",
            m.QueryResponse(
                query_id=query.query_id,
                doc_ids=(fake_doc_id,),
                responder_id=self.node_id,
                hops=query.hops,
                doc_infos=infos,
            ),
        )

    def _handle_query_response(self, message: Message) -> None:
        response: m.QueryResponse = message.payload
        if len(response.doc_infos) != len(response.doc_ids):
            # Integrity check: an honest server builds ``doc_infos`` from
            # the documents it actually holds, so metadata always covers
            # every claimed doc id.  A mismatch means fabricated content —
            # reject *without settling*, so an armed failover deadline
            # keeps retrying other members.  (Counter registered lazily:
            # honest runs never take this branch, keeping goldens intact.)
            obs.counter("overlay.bogus_responses_rejected").inc()
            self.hooks.on_bogus_response(self, response)
            return
        state = self._query_attempts.pop(response.query_id, None)
        if state is not None:
            state.settled = True  # disarms any in-flight failover deadline
        for category_id, entry in response.dcrt_updates:
            self.dcrt.merge(category_id, entry)
        if self.config.cache_capacity > 0:
            for info in response.doc_infos:
                self._cache_store(info)
        self.hooks.on_query_response(self, response)

    # ------------------------------------------------------------------
    # overload signals (service model; see repro.overlay.service)
    # ------------------------------------------------------------------
    def _redirect_query(self, query: m.QueryMessage) -> bool:
        """Hand an overflow query to another holder or cluster member.

        The load-based-redirection admission policy: prefer a replica
        holder of the wanted document (cluster metadata), fall back to a
        random fellow member (NRT).  Returns False when nobody else is
        known — the caller sheds instead.
        """
        if isinstance(query, m.ChunkRequest):
            # Chunk requests target one specific holder's bytes; there is
            # no equivalent replica to redirect to from here (the fetcher
            # owns source selection), so overflow falls through to a shed
            # and the requester's BUSY handler fails over.
            return False
        entry = self.dcrt.entry(query.category_id)
        forwarded = m.QueryMessage(
            query_id=query.query_id,
            requester_id=query.requester_id,
            category_id=query.category_id,
            remaining=query.remaining,
            hops=query.hops + 1,
            target_cluster=query.target_cluster,
            target_doc_id=query.target_doc_id,
        )
        if query.target_doc_id >= 0:
            holders = [
                holder
                for holder in self.hooks.lookup_holders(
                    self, entry.cluster_id, query.target_doc_id
                )
                if holder != self.node_id
            ]
            if holders:
                choice = holders[int(self.rng.integers(0, len(holders)))]
                self.queries_routed += 1
                self._send(choice, "query", forwarded)
                return True
        target = self.nrt.random_node(
            entry.cluster_id, self.rng, exclude=self.suspects() | {self.node_id}
        )
        if target is not None:
            self.queries_routed += 1
            self._send(target, "query", forwarded)
            return True
        return False

    def _reject_busy(self, query: m.QueryMessage) -> None:
        """Shed a query: tell the requester to back off and go elsewhere."""
        self._send(
            query.requester_id,
            "busy",
            m.Busy(
                query_id=query.query_id,
                responder_id=self.node_id,
                retry_after=self.config.service.busy_retry_after,
            ),
        )

    def _handle_busy(self, message: Message) -> None:
        """An overloaded member shed our query: back off, then fail over."""
        busy: m.Busy = message.payload
        if busy.query_id >= CHUNK_REQUEST_ID_BASE:
            # A shed chunk request (ids live in their own namespace):
            # the fetcher fails over to another source immediately.
            if self._content is not None:
                self._content.handle_busy(busy)
            return
        state = self._query_attempts.get(busy.query_id)
        if state is None:
            # No failover state (reliability off): the shed is terminal.
            if not self._reliability.enabled:
                self._fail_query(busy.query_id, "overloaded")
            return
        if state.settled:
            return  # another member already answered
        if state.attempts >= self._reliability.query_attempts:
            self._query_attempts.pop(state.query_id, None)
            self._fail_query(state.query_id, "overloaded")
            return
        armed_attempts = state.attempts

        def retry() -> None:
            current = self._query_attempts.get(state.query_id)
            if (
                current is not state
                or state.settled
                or state.attempts != armed_attempts
            ):
                return  # answered, failed, or another busy/deadline acted
            _C_QUERY_FAILOVERS.value += 1
            if _TRACE.enabled:
                _TRACE.emit(
                    "query_busy_failover",
                    t=self.transport.now,
                    node=self.node_id,
                    query=state.query_id,
                    shed_by=busy.responder_id,
                )
            self._try_query(state)

        self.transport.schedule(max(busy.retry_after, 0.0), retry)

    def _cache_store(self, info: DocInfo) -> None:
        """Keep a retrieved document as a servable cached replica.

        Cached copies register in the cluster metadata like any stored
        document, so they absorb future requests for hot content
        (future-work item viii).  Only cache-owned entries are evicted —
        contributions and placed replicas are never touched.
        """
        if self._cache.touch(info.doc_id):
            return
        if info.doc_id in self.docs:
            return  # already stored as contribution/replica
        self.store_document(info)
        for evicted in self._cache.add(info.doc_id):
            self.drop_document(evicted)

    # ------------------------------------------------------------------
    # publish (Section 6.2)
    # ------------------------------------------------------------------
    def publish_document(self, info: DocInfo) -> None:
        """Publish a new local document, one announcement per new category."""
        already_published = {
            category_id
            for category_id in info.categories
            if self.dt.has_category(category_id)
        }
        self.store_document(info)
        for category_id in info.categories:
            if category_id in already_published:
                continue  # step 2: this node already announced to s_i
            self._announce_publish(info.doc_id, category_id)

    def announce_contributions(self) -> None:
        """Announce every category of the already-stored local documents.

        Used by the join protocol: the joiner's contributions are in its DT
        before it has told anyone (Section 6.3 step 2 runs the publish
        protocol "for every document d it wishes to contribute").
        """
        categories = sorted(
            {
                category_id
                for doc_id in self.dt.doc_ids()
                for category_id in self.dt.categories_of(doc_id)
            }
        )
        for category_id in categories:
            self._announce_publish(doc_id=-1, category_id=category_id)

    def dummy_publish(self) -> None:
        """A free-rider's empty publish: join cluster 0 to receive updates."""
        self._announce_publish(doc_id=-1, category_id=-1)

    def _announce_publish(self, doc_id: int, category_id: int) -> None:
        cluster_id = (
            self.dcrt.cluster_of(category_id) if category_id >= 0 else DCRT.DEFAULT_CLUSTER
        )
        known = self.nrt.nodes_in(cluster_id)
        targets = [n for n in known if n != self.node_id][: self.config.publish_fanout]
        if not targets:
            # Nobody known in the target cluster: adopt membership locally;
            # gossip will spread our presence.
            self.join_cluster(cluster_id)
            return
        request = m.PublishRequest(
            publisher_id=self.node_id,
            doc_id=doc_id,
            category_id=category_id,
            believed_entry=self.dcrt.entry(category_id)
            if category_id >= 0
            else DCRTEntry(DCRT.DEFAULT_CLUSTER, 0),
        )
        for target in targets:
            self._send(target, "publish_request", request)

    def _handle_publish_request(self, message: Message) -> None:
        request: m.PublishRequest = message.payload
        category_id = request.category_id
        entry = (
            self.dcrt.entry(category_id)
            if category_id >= 0
            else DCRTEntry(DCRT.DEFAULT_CLUSTER, 0)
        )
        accepted = entry.cluster_id in self.memberships
        updates: tuple[tuple[int, DCRTEntry], ...] = ()
        if category_id >= 0 and entry.move_counter > request.believed_entry.move_counter:
            updates = ((category_id, entry),)
        members: tuple[int, ...] = ()
        if accepted:
            members = tuple(self.nrt.nodes_in(entry.cluster_id))
            # step 5: receivers in the serving cluster record the new node.
            self.nrt.add(entry.cluster_id, request.publisher_id)
        self._send(
            request.publisher_id,
            "publish_reply",
            m.PublishReply(
                category_id=category_id,
                accepted=accepted,
                responder_id=self.node_id,
                dcrt_updates=updates,
                cluster_members=members,
            ),
        )

    def _handle_publish_reply(self, message: Message) -> None:
        reply: m.PublishReply = message.payload
        changed = False
        for category_id, entry in reply.dcrt_updates:
            changed = self.dcrt.merge(category_id, entry) or changed
        if reply.accepted:
            cluster_id = (
                self.dcrt.cluster_of(reply.category_id)
                if reply.category_id >= 0
                else DCRT.DEFAULT_CLUSTER
            )
            self.join_cluster(cluster_id, known_members=reply.cluster_members)
            self._publish_retries.pop((reply.category_id, cluster_id), None)
            return
        if changed and reply.category_id >= 0:
            # The category moved since our announcement: chase it
            # (Section 6.2 step 5's "repeat until the correct cluster").
            key = (reply.category_id, self.dcrt.cluster_of(reply.category_id))
            retries = self._publish_retries.get(key, 0)
            if retries < self.config.max_publish_retries:
                self._publish_retries[key] = retries + 1
                self._announce_publish(doc_id=-1, category_id=reply.category_id)

    # ------------------------------------------------------------------
    # join / leave (Section 6.3)
    # ------------------------------------------------------------------
    def start_join(self, bootstrap_id: int) -> None:
        """Contact an existing node and retrieve its metadata (step 2)."""
        self._send(bootstrap_id, "join_request", m.JoinRequest(joiner_id=self.node_id))

    def _handle_join_request(self, message: Message) -> None:
        request: m.JoinRequest = message.payload
        nrt_snapshot = tuple(
            (cluster_id, tuple(self.nrt.nodes_in(cluster_id)))
            for cluster_id in self.nrt.clusters()
        )
        self._send(
            request.joiner_id,
            "join_reply",
            m.JoinReply(
                responder_id=self.node_id,
                dcrt_snapshot=tuple(self.dcrt.snapshot().items()),
                nrt_snapshot=nrt_snapshot,
            ),
            size=4 * m.CONTROL_SIZE,
        )

    def _handle_join_reply(self, message: Message) -> None:
        reply: m.JoinReply = message.payload
        self.dcrt.merge_snapshot(dict(reply.dcrt_snapshot))
        for cluster_id, members in reply.nrt_snapshot:
            self.nrt.add_many(cluster_id, members)
        if self.docs:
            self.announce_contributions()
        else:
            self.dummy_publish()

    def start_leave(self) -> None:
        """Announce departure to every cluster this node belongs to."""
        for cluster_id in sorted(self.memberships):
            notice = m.LeaveNotice(
                leaver_id=self.node_id,
                cluster_id=cluster_id,
                doc_ids=tuple(sorted(self.docs)),
            )
            for neighbor in self.cluster_neighbors.get(cluster_id, ()):
                self._send(neighbor, "leave_notice", notice)
        self.transport.unregister(self.node_id)

    def _handle_leave_notice(self, message: Message) -> None:
        notice: m.LeaveNotice = message.payload
        self.nrt.remove_node(notice.leaver_id)
        for neighbors in self.cluster_neighbors.values():
            neighbors.discard(notice.leaver_id)
        for capabilities in self.known_capabilities.values():
            capabilities.pop(notice.leaver_id, None)
        # A clean departure is not a failure: drop any heartbeat
        # suspicion evidence about the leaver so it does not linger in
        # the suspect map (the crash/leave asymmetry — recover_node
        # clears crash-era state, but nothing cleared leave-era state).
        self.detector.forget(notice.leaver_id)
        self.hooks.on_leave_notice(self, notice)

    # ------------------------------------------------------------------
    # capability gossip and leader election (Section 6.1.1)
    # ------------------------------------------------------------------
    def announce_capabilities(self) -> None:
        """Tell cluster neighbours everything known about member capacities."""
        for cluster_id in self.memberships:
            capabilities = self.known_capabilities.setdefault(cluster_id, {})
            capabilities[self.node_id] = self.capacity_units
            payload = m.CapabilityAnnounce(
                cluster_id=cluster_id,
                capabilities=tuple(sorted(capabilities.items())),
            )
            for neighbor in self.cluster_neighbors.get(cluster_id, ()):
                self._send(neighbor, "capability", payload)

    def _handle_capability(self, message: Message) -> None:
        announce: m.CapabilityAnnounce = message.payload
        known = self.known_capabilities.setdefault(announce.cluster_id, {})
        for node_id, capacity in announce.capabilities:
            known[node_id] = capacity

    def elect_leaders(self, alive: set[int] | None = None) -> None:
        """Apply the election rule to each cluster's known capabilities.

        The failure detector's suspects are struck from the eligible set
        (a dead leader costs a whole adaptation round); if suspicion
        would leave nobody eligible, it is ignored — a wrong suspect list
        must never block the election entirely.
        """
        suspects = self.suspects()
        for cluster_id in self.memberships:
            capabilities = self.known_capabilities.get(
                cluster_id, {self.node_id: self.capacity_units}
            )
            eligible = alive
            if suspects:
                pool = set(alive) if alive is not None else set(capabilities)
                eligible = (pool - suspects) or pool
            winner = elect_leader(capabilities, alive=eligible)
            if winner is not None:
                self.believed_leader[cluster_id] = winner

    # ------------------------------------------------------------------
    # leader liveness probing (Section 6.1.1: "during the adaptation
    # stage, nodes probe their cluster leaders to assure they are alive")
    # ------------------------------------------------------------------
    def probe_leader(self, cluster_id: int, round_id: int, timeout: float = 2.0) -> None:
        """Probe the believed leader; on timeout, fail over to the next
        most capable known node (excluding the dead one) — Section 6.1.1's
        "in the case of a leader failure, another node is selected"."""
        leader_id = self.believed_leader.get(cluster_id)
        if leader_id is None or leader_id == self.node_id:
            return
        probe_key = (cluster_id, round_id)
        self._pending_probes.add(probe_key)
        self._send(
            leader_id,
            "leader_probe",
            m.LeaderProbe(
                round_id=round_id, cluster_id=cluster_id, prober_id=self.node_id
            ),
        )

        def on_timeout() -> None:
            if probe_key not in self._pending_probes:
                return  # the leader answered in time
            self._pending_probes.discard(probe_key)
            if self._reliability.enabled:
                # Share the evidence: an unresponsive leader is suspect
                # for every protocol, not just this probe.
                self.detector.note_missed(leader_id)
            capabilities = dict(self.known_capabilities.get(cluster_id, {}))
            capabilities.pop(leader_id, None)
            replacement = elect_leader(capabilities)
            if replacement is not None:
                self.believed_leader[cluster_id] = replacement

        self.transport.schedule(timeout, on_timeout)

    def _handle_leader_probe(self, message: Message) -> None:
        probe: m.LeaderProbe = message.payload
        # Answer if this node believes itself to be (a) leader of the
        # cluster; divergent beliefs are tolerated (Section 6.1.1).
        if self.believed_leader.get(probe.cluster_id) == self.node_id:
            self._send(
                probe.prober_id,
                "leader_probe_reply",
                m.LeaderProbeReply(
                    round_id=probe.round_id,
                    cluster_id=probe.cluster_id,
                    leader_id=self.node_id,
                ),
            )

    def _handle_leader_probe_reply(self, message: Message) -> None:
        reply: m.LeaderProbeReply = message.payload
        self._pending_probes.discard((reply.cluster_id, reply.round_id))
        self.believed_leader[reply.cluster_id] = reply.leader_id

    # ------------------------------------------------------------------
    # monitoring: Phase 1 of adaptation (Section 6.1.2)
    # ------------------------------------------------------------------
    def start_monitoring(self, cluster_id: int, round_id: int) -> None:
        """Leader entry point: aggregate the cluster's hit counters."""
        if cluster_id not in self.memberships:
            raise ValueError(
                f"node {self.node_id} is not a member of cluster {cluster_id}"
            )
        round_key = (cluster_id, round_id)
        state = _MonitoringRound(
            round_id=round_id,
            cluster_id=cluster_id,
            parent_id=self.node_id,
            pending_children=0,
            counts=dict(self._local_counts_for(cluster_id)),
            weights=dict(self._local_weights_for(cluster_id)),
        )
        self._monitoring[round_key] = state
        budget = self.config.monitoring_timeout
        request = m.HitCountRequest(
            round_id=round_id,
            cluster_id=cluster_id,
            leader_id=self.node_id,
            timeout_budget=budget * 0.7,
        )
        suspects = self.suspects()
        for neighbor in self.cluster_neighbors.get(cluster_id, ()):
            if neighbor in suspects:
                continue  # routed around instead of timed out
            self._send(neighbor, "hit_count_request", request)
            state.pending_children += 1
        if state.pending_children == 0:
            self._finish_monitoring(state)
        else:
            self._arm_monitoring_timeout(round_key, budget)

    def _local_counts_for(self, cluster_id: int) -> dict[int, int]:
        """This node's hit counters for the categories of ``cluster_id``."""
        return {
            category_id: hits
            for category_id, hits in self.hit_counters.items()
            if self.dcrt.cluster_of(category_id) == cluster_id
        }

    def _local_weights_for(self, cluster_id: int) -> dict[int, float]:
        """Decentralized estimate of this node's capacity share per category.

        The Section 4.3.3 weight is ``u_k * p(D_i(k)) / p(D(k))`` — a split
        of the node's units over its *stored content*.  Without knowing true
        popularities, the node splits its units in proportion to how many
        documents it stores per category.  Crucially this is a property of
        what is stored, not of observed traffic: weights derived from hit
        counters would be self-fulfilling (any load distribution looks fair
        when capacity shares shadow the hits) and rebalancing would never
        converge.
        """
        doc_counts: dict[int, int] = {}
        total_docs = 0
        for info in self.docs.values():
            for category_id in info.categories:
                doc_counts[category_id] = doc_counts.get(category_id, 0) + 1
                total_docs += 1
        if total_docs == 0:
            return {}
        return {
            category_id: self.capacity_units * count / total_docs
            for category_id, count in doc_counts.items()
            if self.dcrt.cluster_of(category_id) == cluster_id
        }

    def _handle_hit_count_request(self, message: Message) -> None:
        request: m.HitCountRequest = message.payload
        round_key = (request.cluster_id, request.round_id)
        if round_key in self._monitoring:
            # Duplicate via another graph path: answer "already counted" so
            # the sender is not left waiting (tree loops broken here).
            self._send(
                message.src,
                "hit_count_reply",
                m.HitCountReply(
                    round_id=request.round_id,
                    cluster_id=request.cluster_id,
                    counts=(),
                    weights=(),
                    subtree_size=0,
                ),
            )
            return
        state = _MonitoringRound(
            round_id=request.round_id,
            cluster_id=request.cluster_id,
            parent_id=message.src,
            pending_children=0,
            counts=dict(self._local_counts_for(request.cluster_id)),
            weights=dict(self._local_weights_for(request.cluster_id)),
        )
        self._monitoring[round_key] = state
        forwarded = m.HitCountRequest(
            round_id=request.round_id,
            cluster_id=request.cluster_id,
            leader_id=request.leader_id,
            timeout_budget=request.timeout_budget * 0.7,
        )
        suspects = self.suspects()
        for neighbor in self.cluster_neighbors.get(request.cluster_id, ()):
            if neighbor == message.src or neighbor in suspects:
                continue
            self._send(neighbor, "hit_count_request", forwarded)
            state.pending_children += 1
        if state.pending_children == 0:
            self._finish_monitoring(state)
        else:
            self._arm_monitoring_timeout(round_key, request.timeout_budget)

    def _arm_monitoring_timeout(
        self, round_key: tuple[int, int], budget: float
    ) -> None:
        def timeout() -> None:
            state = self._monitoring.get(round_key)
            if state is not None and not state.finished:
                state.pending_children = 0
                self._finish_monitoring(state)

        self.transport.schedule(max(budget, 0.1), timeout)

    def _handle_hit_count_reply(self, message: Message) -> None:
        reply: m.HitCountReply = message.payload
        round_key = (reply.cluster_id, reply.round_id)
        state = self._monitoring.get(round_key)
        if state is None or state.finished:
            return
        for category_id, hits in reply.counts:
            state.counts[category_id] = state.counts.get(category_id, 0) + hits
        for category_id, weight in reply.weights:
            state.weights[category_id] = state.weights.get(category_id, 0.0) + weight
        state.subtree_size += reply.subtree_size
        state.pending_children -= 1
        if state.pending_children <= 0:
            self._finish_monitoring(state)

    def _finish_monitoring(self, state: _MonitoringRound) -> None:
        state.finished = True
        if state.parent_id == self.node_id:
            self.hooks.on_monitoring_complete(
                self,
                state.cluster_id,
                state.round_id,
                state.counts,
                state.weights,
                state.subtree_size,
            )
            return
        self._send(
            state.parent_id,
            "hit_count_reply",
            m.HitCountReply(
                round_id=state.round_id,
                cluster_id=state.cluster_id,
                counts=tuple(state.counts.items()),
                weights=tuple(state.weights.items()),
                subtree_size=state.subtree_size,
            ),
            size=2 * m.CONTROL_SIZE,
        )

    def _handle_load_report(self, message: Message) -> None:
        self.hooks.on_load_report(self, message.payload)

    # ------------------------------------------------------------------
    # rebalancing: node side of the lazy protocol (Section 6.1.2)
    # ------------------------------------------------------------------
    def _handle_reassign_notice(self, message: Message) -> None:
        notice: m.ReassignNotice = message.payload
        known_epoch = self.ownership_epochs.get(notice.category_id, 0)
        if notice.epoch or known_epoch:
            # Epoch fencing (durability armed): a notice must strictly
            # advance the category's ownership epoch.  A stale owner
            # resurfacing after a partition heal re-announces its old
            # epoch and is rejected here, whatever its move counter says.
            if notice.epoch <= known_epoch:
                return
            self.ownership_epochs[notice.category_id] = notice.epoch
            if self._journal is not None:
                self._journal.record(
                    "epoch", notice.category_id, notice.epoch
                )
        entry = DCRTEntry(notice.target_cluster, notice.move_counter)
        if not self.dcrt.merge(notice.category_id, entry):
            return  # stale or duplicate notice
        # Source role: remember which destination partners this node must
        # split its group across (the paper divides each category's data
        # "into |Ni| pieces, one per each node" of the destination).
        my_partners = tuple(
            destination_id
            for source_id, destination_id in notice.transfer_pairs
            if source_id == self.node_id
        )
        if my_partners:
            self._transfer_partners[notice.category_id] = my_partners
        for source_id, doc_ids in notice.source_docs:
            if source_id == self.node_id:
                self._designated_docs[notice.category_id] = tuple(doc_ids)
        # Destination role: schedule the pull of this node's piece.
        for source_id, destination_id in notice.transfer_pairs:
            if destination_id == self.node_id:
                pending = _PendingTransfer(
                    category_id=notice.category_id, source_id=source_id
                )
                self._pending_transfers[notice.category_id] = pending
                # Schedule the group transfer for an opportune moment.
                delay = float(self.rng.random()) * self.config.transfer_stagger
                self.transport.schedule(
                    delay, lambda p=pending: self._request_transfer(p)
                )

    def _request_transfer(
        self,
        pending: _PendingTransfer,
        urgent: bool = False,
        doc_id: int | None = None,
    ) -> None:
        """Pull the owed group (or one urgent document) from the source."""
        if urgent and doc_id is not None:
            # Pull-on-demand for a specific document can run even while the
            # bulk group transfer is pending or already requested.
            self._send(
                pending.source_id,
                "transfer_request",
                m.TransferRequest(
                    category_id=pending.category_id,
                    requester_id=self.node_id,
                    doc_ids=(doc_id,),
                ),
            )
            return
        if pending.requested:
            return
        pending.requested = True
        self._send(
            pending.source_id,
            "transfer_request",
            m.TransferRequest(
                category_id=pending.category_id,
                requester_id=self.node_id,
                doc_ids=(),
            ),
        )

    def _group_for_partner(self, category_id: int, partner_id: int) -> list[int]:
        """The slice of this node's category documents owed to ``partner_id``.

        The node ships its *designated* documents (the coordinator's
        deduplicated partition of the category; falls back to everything it
        holds), split deterministically across its partners, so the
        destination cluster collectively receives one copy of everything
        instead of every partner receiving everything.
        """
        designated = self._designated_docs.get(category_id)
        if designated is not None:
            held = sorted(d for d in designated if self.dt.has_document(d))
        else:
            held = sorted(self.dt.docs_in_category(category_id))
        partners = self._transfer_partners.get(category_id, ())
        if partner_id not in partners:
            return held
        index = partners.index(partner_id)
        return held[index :: len(partners)]

    def _handle_transfer_request(self, message: Message) -> None:
        request: m.TransferRequest = message.payload
        if request.doc_ids:
            doc_ids = request.doc_ids  # urgent pull of specific documents
        else:
            doc_ids = tuple(
                self._group_for_partner(request.category_id, request.requester_id)
            )
        infos = [self.docs[d] for d in doc_ids if d in self.docs]
        total = sum(info.size_bytes for info in infos)
        self._send(
            request.requester_id,
            "transfer_data",
            m.TransferData(
                category_id=request.category_id,
                doc_ids=tuple(info.doc_id for info in infos),
                total_bytes=total,
            ),
            size=max(total, m.CONTROL_SIZE),
        )
        # The source keeps its copies for now: its DCRT already routes
        # queries away.  Space is reclaimed lazily (not modelled further).

    def _handle_transfer_data(self, message: Message) -> None:
        data: m.TransferData = message.payload
        per_doc = data.total_bytes // max(1, len(data.doc_ids))
        for doc_id in data.doc_ids:
            self.store_document(
                DocInfo(
                    doc_id=doc_id,
                    categories=(data.category_id,),
                    size_bytes=per_doc,
                )
            )
        pending = self._pending_transfers.get(data.category_id)
        if pending is not None:
            entry = self.dcrt.entry(data.category_id)
            waiting, pending.waiting_queries = pending.waiting_queries, []
            if pending.requested:
                # The bulk group has arrived; future queries go through the
                # normal path (and may still pull individual docs urgently).
                self._pending_transfers.pop(data.category_id, None)
            for query in waiting:
                if query.target_doc_id >= 0:
                    if self.dt.has_document(query.target_doc_id):
                        self._serve_docs(query, (query.target_doc_id,), entry)
                    else:
                        # Not in this piece: locate a holder through the
                        # cluster metadata instead of stalling forever.
                        holders = [
                            holder
                            for holder in self.hooks.lookup_holders(
                                self, entry.cluster_id, query.target_doc_id
                            )
                            if holder != self.node_id
                        ]
                        if holders:
                            choice = holders[
                                int(self.rng.integers(0, len(holders)))
                            ]
                            self._send(choice, "query", query)
                    continue
                matched = self.dt.docs_in_category(query.category_id)
                self._serve_and_forward(query, matched, entry)
        self.hooks.on_transfer_complete(self, data.category_id, data.doc_ids)

    # ------------------------------------------------------------------
    # epidemic dissemination of metadata (lazy step 5)
    # ------------------------------------------------------------------
    def gossip_once(self) -> None:
        """Push-pull the local DCRT with one random known neighbour.

        Partners come from the cluster graph; nodes without cluster
        neighbours (free riders after their dummy publish) fall back to
        NRT contacts so they keep "receiving further updates of NRTs and
        DCRTs" (Section 6.3).
        """
        partners: list[int] = []
        for neighbors in self.cluster_neighbors.values():
            partners.extend(neighbors)
        if not partners:
            for cluster_id in self.nrt.clusters():
                partners.extend(
                    node_id
                    for node_id in self.nrt.nodes_in(cluster_id)
                    if node_id != self.node_id
                )
        if not partners:
            return
        partner = partners[int(self.rng.integers(0, len(partners)))]
        _C_GOSSIP_SENT.value += 1
        if _TRACE.enabled:
            _TRACE.emit(
                "gossip",
                t=self.transport.now,
                node=self.node_id,
                partner=partner,
            )
        entries = tuple(self.dcrt.snapshot().items())
        if (
            self.misbehavior is not None
            and self.misbehavior.stale_gossip
            and self._stale_gossip_digest is not None
        ):
            # Replay the digest frozen at arming time: the push half of
            # push-pull spreads nothing new, but receivers ignore stale
            # entries by move-counter and this peer still merges incoming
            # corrections — so the blast radius is wasted bytes, not
            # divergence (asserted by the gossip-convergence invariant).
            entries = self._stale_gossip_digest
        self._send(
            partner,
            "gossip",
            m.GossipDigest(sender_id=self.node_id, entries=entries),
            size=2 * m.CONTROL_SIZE,
        )

    def _handle_gossip(self, message: Message) -> None:
        digest: m.GossipDigest = message.payload
        newer_here: list[tuple[int, DCRTEntry]] = []
        for category_id, entry in digest.entries:
            local = self.dcrt.entry(category_id)
            if local.move_counter > entry.move_counter:
                newer_here.append((category_id, local))
            else:
                self.dcrt.merge(category_id, entry)
        if newer_here and message.kind == "gossip":
            # Push-pull: send back what the partner is missing.
            self._send(
                digest.sender_id,
                "gossip_reply",
                m.GossipDigest(sender_id=self.node_id, entries=tuple(newer_here)),
            )

    def _handle_gossip_reply(self, message: Message) -> None:
        digest: m.GossipDigest = message.payload
        for category_id, entry in digest.entries:
            self.dcrt.merge(category_id, entry)
