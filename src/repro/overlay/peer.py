"""Per-node protocol behaviour: the :class:`Peer` core.

A :class:`Peer` is one live node of the overlay.  The core owns what
every protocol shares — identity, the Figure 1 metadata (DT / DCRT /
NRT), the stored documents, cluster memberships and per-category hit
counters, the transport, storage, and the node's lifecycle (crash,
heal, power loss, durable recovery) — plus a dispatch table,
``kind -> (payload class, component index, function)``.  The protocols
themselves are components that hold a back-reference to the peer, own
their state and declare their kinds at class level; every peer of a
world whose components are of the same classes holds the one table
built from those declarations:

* ``peer.queries`` — :class:`~repro.overlay.query_protocol.QueryProtocol`
  (Section 3.3, overload signals, requester cache);
* ``peer.membership`` —
  :class:`~repro.overlay.membership_protocol.MembershipProtocol`
  (publish, join/leave, gossip: Sections 6.2-6.3);
* ``peer.adaptation`` —
  :class:`~repro.overlay.adaptation_protocol.AdaptationProtocol`
  (election, monitoring, reassign/transfer: Section 6.1);
* ``peer.channel`` / ``peer.detector`` — reliable delivery and failure
  detection (``ack``, ``ping``/``pong``);
* ``peer.service`` / ``peer.content_state`` — the service queue and the
  chunk-protocol endpoint, constructed only when switched on: a
  subsystem that is off is absent from the table, not guarded per site.

Peers interact with the rest of the world only through their
:class:`repro.transport.Transport` (messages, timers, and the clock) and
the :class:`PeerHooks` callback object (for things the experiment
harness wants to observe) — the same protocol code runs over the
discrete-event simulator and over real sockets (:mod:`repro.live`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Collection, Iterable
from weakref import WeakKeyDictionary

import numpy as np

from repro import obs
# Submodule import on purpose: ``repro.content`` re-exports from
# modules that import this package, so going through its __init__ here
# would close an import cycle.
from repro.content.chunks import ContentConfig
from repro.durability import durable_state
from repro.overlay import messages as m
from repro.overlay.adaptation_protocol import AdaptationProtocol
from repro.overlay.membership_protocol import MembershipProtocol
from repro.overlay.messages import DocInfo
from repro.overlay.metadata import DCRT, NRT, CapabilityTable, DocumentTable
from repro.overlay.query_protocol import QueryProtocol
from repro.overlay.service import ServiceConfig, ServiceQueue
from repro.reliability.channel import DEDUP_CAPACITY, ReliabilityConfig, ReliableChannel
from repro.reliability.detector import FailureDetector
from repro.sim.network import Message
from repro.transport import ReliableTransport, Transport

__all__ = ["DocInfo", "PeerConfig", "PeerHooks", "Peer"]

_NO_SUSPECTS: frozenset[int] = frozenset()
#: NRT entries kept per cluster (Section 6.2's LRU bound), in every world.
NRT_CAPACITY = 512

#: kind -> (payload class, component index, function): a frame of
#: ``kind`` whose payload is exactly that class is handled by
#: ``function(components[index], payload, src)``.
DispatchTable = dict[str, tuple[type, int, Callable]]

#: world (the base transport its peers share) -> component classes -> the
#: one table built from their declarations.  Per world, not per process:
#: a table holds the functions its classes had when the world's first peer
#: was built, so a later world sees what the classes hold then.
_TABLES: "WeakKeyDictionary[Transport, dict[tuple[type, ...], DispatchTable]]" = (
    WeakKeyDictionary()
)


def _shared_table(transport: Transport, components: tuple) -> DispatchTable:
    """The one table of ``transport``'s world for these components' classes.

    A component class declares its kinds with ``registrations()``:
    ``kind -> (payload class, function)``.  Every kind has one owner.
    """
    classes = tuple(map(type, components))
    tables = _TABLES.setdefault(transport, {})
    table = tables.get(classes)
    if table is None:
        table = {}
        for index, cls in enumerate(classes):
            if not hasattr(cls, "registrations"):
                continue
            for kind, (payload_class, fn) in cls.registrations().items():
                if kind in table:
                    raise ValueError(f"kind {kind!r} already owned")
                table[kind] = (payload_class, index, fn)
        tables[classes] = table
    return table


@dataclass(frozen=True, slots=True)
class PeerConfig:
    """Tunables for peer behaviour."""

    #: requester-side query cache (future-work item viii): number of
    #: retrieved documents kept as servable replicas, LRU-evicted.
    #: 0 disables caching.
    cache_capacity: int = 0
    #: ack/retry channel, query failover, and failure-detector knobs
    #: (off by default — protocols stay fire-and-forget).
    reliability: ReliabilityConfig = ReliabilityConfig()
    #: per-peer service model: finite service rate, bounded intake queue,
    #: and admission control (off by default — serving stays instant).
    service: ServiceConfig = ServiceConfig()
    #: content data plane: chunked transfer, multi-source fetch, repair
    #: loops (off by default — documents stay metadata-only tokens).
    content: ContentConfig = ContentConfig()


class PeerHooks:
    """Events the world acts on; the default implementation ignores them.

    The experiment harness (:class:`repro.overlay.system.P2PSystem`)
    overrides what it needs — e.g. recording query responses or learning
    that a peer joined a cluster so the cluster graph can be updated.
    """

    def on_query_response(self, peer: "Peer", response: m.QueryResponse) -> None:
        """A response for a query this peer originated arrived."""

    def on_query_failed(self, peer: "Peer", query_id: int, reason: str) -> None:
        """A query could not even be dispatched (no live target known)."""

    def on_document_stored(self, peer: "Peer", doc_id: int) -> None:
        """A peer stored a document (contribution, replica, or transfer)."""

    def on_document_dropped(self, peer: "Peer", doc_id: int) -> None:
        """A peer dropped a stored document."""

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

    def on_leave_notice(self, peer: "Peer", notice: m.LeaveNotice) -> None:
        """A cluster fellow announced departure."""


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
        The world this peer lives in (keyword-only, required): a
        simulated :class:`repro.sim.network.Network` or a
        :class:`repro.live.AsyncioTransport` for sockets.  The peer
        registers its handler on creation.
    """

    __slots__ = (
        "node_id", "capacity_units", "transport", "rng", "hooks", "config",
        "docs", "dt", "journal", "lost_memory", "_dispatch", "_reliability",
        "channel", "detector", "service", "content_state", "queries",
        "membership", "adaptation", "components",
        # the volatile tables of ``_reset_tables``
        "dcrt", "nrt", "memberships", "cluster_neighbors", "hit_counters",
        "requests_served", "queries_routed", "known_capabilities",
        "believed_leader", "super_peers", "ownership_epochs", "_applied_counts",
    )

    def __init__(
        self,
        node_id: int,
        capacity_units: float,
        rng: np.random.Generator,
        hooks: PeerHooks | None = None,
        config: PeerConfig | None = None,
        jitter_rng: np.random.Generator | None = None,
        *,
        transport: Transport,
    ) -> None:
        self.node_id = node_id
        self.capacity_units = capacity_units
        #: the world seam every send, timer, and clock read goes through;
        #: rebound below to the reliability wrapper when acks are on.
        self.transport: Transport = transport
        self.rng = rng
        self.hooks = hooks if hooks is not None else PeerHooks()
        self.config = config if config is not None else PeerConfig()

        #: documents stored locally, with their metadata; the DT reads
        #: through it, so it is changed in place and never rebound.
        self.docs: dict[int, DocInfo] = {}
        self.dt = DocumentTable(self.docs)
        self._reset_tables()
        #: durability journal (None unless the deployment attaches one).
        self.journal = None
        #: True between a power loss (memory wiped) and the replay that
        #: restores durable state on recovery.
        self.lost_memory = False

        #: reliable delivery: both halves of the ack/retry protocol plus
        #: the failure detector.  Constructed unconditionally —
        #: the receiver side (ack + dedup) must work even when this peer
        #: does not itself send reliably; the sender side only engages
        #: when ``config.reliability.enabled``.
        self._reliability = self.config.reliability
        self.channel = ReliableChannel(
            node_id,
            transport,
            self._reliability,
            jitter_rng=jitter_rng,
            # A delivery that exhausted its attempts is evidence of death.
            on_give_up=lambda dst, kind: self.detector.note_missed(dst),
        )
        self.detector = FailureDetector(node_id, transport, self._reliability, rng)
        if self._reliability.enabled:
            # Reliability composes as a transport wrapper: kinds wanting
            # ack/retry route through the channel, the rest pass straight
            # to the base transport — one send path either way.
            self.transport = ReliableTransport(transport, self.channel)
        #: bounded service queue in front of member-side work; None keeps
        #: the historical instant-serve behaviour (and registers none of
        #: the overload metrics).
        self.service = (
            ServiceQueue(self, self.config.service)
            if self.config.service.enabled
            else None
        )
        #: chunk-protocol endpoint (content data plane); None keeps
        #: documents as metadata-only tokens with zero extra state.
        self.content_state = None
        if self.config.content.enabled:
            # Runtime import: repro.content.fetcher imports this module's
            # package at load time, so binding it here breaks the cycle.
            from repro.content.fetcher import PeerContent

            self.content_state = PeerContent(self, self.config.content)
        #: the protocol components; all of their state is volatile.
        self.queries = QueryProtocol(self)
        self.membership = MembershipProtocol(self)
        self.adaptation = AdaptationProtocol(self)
        #: every live component, in lifecycle fan-out order.
        self.components = tuple(
            component
            for component in (
                self.detector, self.channel, self.service, self.content_state,
                *self.protocols,
            )
            if component is not None
        )
        #: the world's :data:`DispatchTable` for these component classes,
        #: until :meth:`register` gives this peer a copy of its own.
        self._dispatch = _shared_table(transport, self.components)
        transport.register(node_id, self.handle_message)

    @property
    def protocols(self) -> tuple:
        """The protocol components, which a power loss rebuilds."""
        return (self.queries, self.membership, self.adaptation)

    def _reset_tables(self, on_dcrt_change=None) -> None:
        """(Re)create the core's volatile tables.

        Construction and :meth:`lose_power` share this, so a table added
        here can not be forgotten by the wipe.
        """
        self.dcrt = DCRT(on_change=on_dcrt_change)
        self.nrt = NRT(max_nodes_per_cluster=NRT_CAPACITY)
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
        #: capability knowledge per cluster (Section 6.1.1 gossip), own
        #: clusters and foreign ones alike: query dispatch draws members by
        #: it.  A shared table is read-only until :meth:`own_capabilities`
        #: makes it this peer's.
        self.known_capabilities: dict[int, CapabilityTable] = {}
        self.believed_leader: dict[int, int] = {}
        #: cluster id -> super-peer node holding the cluster metadata, when
        #: the deployment runs in super-peer mode (Section 3's hybrid
        #: alternative); empty in the fully-replicated-metadata mode.
        self.super_peers: dict[int, int] = {}
        #: category -> highest ownership epoch this peer has adopted.
        #: Epochs fence ReassignNotices when durability is armed (all
        #: zero otherwise — the legacy unfenced protocol).
        self.ownership_epochs: dict[int, int] = {}
        #: (src, delivery_id) -> times the protocol handler ran for it;
        #: the exactly-once chaos invariant asserts every count is 1.
        self._applied_counts: "OrderedDict[tuple[int, int], int]" = OrderedDict()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def register(
        self, kind: str, payload_class: type, owner, fn: Callable, *,
        replace: bool = False,
    ) -> None:
        """Route ``kind`` frames carrying ``payload_class`` to ``fn``.

        ``fn(owner, payload, src)``; ``owner`` is one of this peer's
        components.  Every kind has exactly one owner; taking over a
        registered kind must say so with ``replace``.  The table written
        is a copy, so the change reaches no other peer of the world.
        """
        if not replace and kind in self._dispatch:
            raise ValueError(f"peer {self.node_id}: kind {kind!r} already owned")
        entry = (payload_class, self.components.index(owner), fn)
        self._dispatch = {**self._dispatch, kind: entry}

    def _fan_out(self, method: str, *args) -> None:
        """Call ``method`` of every component that defines it."""
        for component in self.components:
            bound = getattr(component, method, None)
            if bound is not None:
                bound(*args)

    def handle_message(self, message: Message) -> None:
        """Network entry point: reject, ack/dedup reliable traffic, dispatch.

        Frames arrive from outside the program, so the table is consulted
        *first*: an unknown kind, or a payload that is not the class the
        kind's owner registered, is dropped and counted before it can
        count as liveness evidence, be acked, or enter the dedup window.
        """
        entry = self._dispatch.get(message.kind)
        payload = message.payload
        if entry is None or type(payload) is not entry[0]:
            # Lazily registered: honest worlds never reach this path, so
            # the counter stays out of their metric snapshots (and goldens).
            obs.counter("overlay.rejected_messages").inc()
            return
        self.detector.note_alive(message.src)
        if self.channel.observe(message):
            return  # duplicate of an already-applied reliable delivery
        if message.delivery_id >= 0:
            key = (message.src, message.delivery_id)
            previous = self._applied_counts.get(key)
            self._applied_counts[key] = 1 if previous is None else previous + 1
            if previous is None:
                while len(self._applied_counts) > DEDUP_CAPACITY:
                    self._applied_counts.popitem(last=False)
        entry[2](self.components[entry[1]], payload, message.src)

    def _send(self, dst: int, kind: str, payload, size: int = m.CONTROL_SIZE) -> None:
        # One send path for every configuration: the reliability branch
        # lives in the transport stack (ReliableTransport), not here.
        self.transport.send(self.node_id, dst, kind, payload, size_bytes=size)

    def admit(self, work, owner) -> None:
        """Take on member-side work for ``owner``, the component it came to.

        A routed query belongs to ``self.queries``, a chunk request to
        ``self.content_state``.  With the service model on the work pays
        intake-queue admission and service time first, and the queue hands
        it back through ``owner.serve`` / ``shed`` / ``redirect``;
        otherwise ``owner.serve(work)`` runs inline.
        """
        if self.service is not None:
            self.service.offer(work, owner)
        else:
            owner.serve(work)

    def suspects(self) -> frozenset[int] | set[int]:
        """Nodes the failure detector currently believes dead."""
        if self._reliability.enabled and self.detector.suspects:
            return self.detector.suspects
        return _NO_SUSPECTS

    def heartbeat_once(self) -> None:
        """One failure-detector round: at most one direct probe.

        Round-driven (see ``P2PSystem.run_failure_detector_rounds``)
        rather than self-scheduling, so run-to-quiescence callers still
        drain.  The pool is the one gossip uses: cluster neighbours
        first, NRT contacts as the fallback.  The detector probes the
        contact in the pool's next round-robin slot unless it was heard
        from since the last round, and asks helpers from the pool to
        ping it before it suspects (``FailureDetector.probe_round``).
        """
        partners: set[int] = set()
        for neighbors in self.cluster_neighbors.values():
            partners |= neighbors
        if not partners:
            for cluster_id in self.nrt.clusters():
                partners.update(self.nrt.nodes_in(cluster_id))
        partners.discard(self.node_id)
        self.detector.probe_round(partners)

    # ------------------------------------------------------------------
    # storage and membership
    # ------------------------------------------------------------------
    def store_document(self, info: DocInfo) -> None:
        """Store a document locally (contribution, replica, or transfer)."""
        if not info.categories:
            raise ValueError("a document must have at least one category")
        self.docs[info.doc_id] = info
        # Write-ahead: the store is journaled before any hook can
        # acknowledge it to the rest of the deployment.
        self._record("store", info.doc_id, info.size_bytes, info.categories)
        self.hooks.on_document_stored(self, info.doc_id)

    def drop_document(self, doc_id: int) -> None:
        held = self.docs.pop(doc_id, None) is not None
        if held:
            # Apply, then journal (as ``store_document`` does): a record
            # that triggers compaction snapshots the state it describes.
            self._record("drop", doc_id)
            self.hooks.on_document_dropped(self, doc_id)

    def join_cluster(
        self, cluster_id: int, known_members: Collection[int] = ()
    ) -> None:
        """Become a member of ``cluster_id`` and learn some fellows."""
        newly = cluster_id not in self.memberships
        self.memberships.add(cluster_id)
        # This node is touched first unless ``known_members`` places it (a
        # full table of fellows evicts an unplaced self), then one batch.
        if self.node_id not in known_members:
            self.nrt.add(cluster_id, self.node_id)
        self.nrt.add_many(cluster_id, known_members)
        self.cluster_neighbors.setdefault(cluster_id, set())
        self.learn_capabilities(cluster_id, ((self.node_id, self.capacity_units),))
        if newly:
            self._record("join", cluster_id)
            self.hooks.on_cluster_joined(self, cluster_id)

    def own_capabilities(self, cluster_id: int) -> CapabilityTable:
        """This peer's private, writable capability table for ``cluster_id``.

        World bootstrap hands every peer that knows a cluster one shared,
        read-only table; whoever is about to change an entry calls this,
        and the first such call copies it.
        """
        known = self.known_capabilities.get(cluster_id)
        if known is None or known.shared:
            known = self.known_capabilities[cluster_id] = CapabilityTable(
                known or {}
            )
        return known

    def learn_capabilities(
        self, cluster_id: int, capabilities: Iterable[tuple[int, float]]
    ) -> CapabilityTable:
        """Record ``(node id, capacity)`` pairs; returns the cluster's table."""
        known = self.known_capabilities.get(cluster_id)
        if known is None:
            known = self.own_capabilities(cluster_id)
        for node_id, capacity in capabilities:
            if known.get(node_id) != capacity:
                known = self.own_capabilities(cluster_id)
                known[node_id] = capacity
        return known

    def set_cluster_neighbors(self, cluster_id: int, neighbors: Iterable[int]) -> None:
        self.cluster_neighbors[cluster_id] = set(neighbors) - {self.node_id}

    # ------------------------------------------------------------------
    # introspection (read-only views for invariant checkers)
    # ------------------------------------------------------------------
    def doc_ids(self) -> list[int]:
        """Sorted ids of all locally stored documents."""
        return sorted(self.docs)

    def reliable_application_counts(self) -> dict[tuple[int, int], int]:
        """Copy of the (src, delivery_id) -> handler-run counts window.

        Exactly-once effects under at-least-once delivery means every
        count is 1; the chaos invariant checker asserts exactly that.
        """
        return dict(self._applied_counts)

    def service_snapshot(self) -> dict | None:
        """Service-queue accounting, or None when the model is disabled."""
        return None if self.service is None else self.service.snapshot()

    def cache_stats(self) -> dict:
        """Accounting view of the requester-side cache (zeros when off)."""
        return self.queries.cache.stats()

    # ------------------------------------------------------------------
    # entry points the protocol components own (kept here by name for the
    # stack benchmark's tracer and drivers)
    # ------------------------------------------------------------------
    def start_query(
        self,
        query_id: int,
        category_id: int,
        m_results: int,
        target_doc_id: int = -1,
    ) -> None:
        """See :meth:`QueryProtocol.start_query`."""
        self.queries.start_query(query_id, category_id, m_results, target_doc_id)

    def start_join(self, bootstrap_id: int) -> None:
        """See :meth:`MembershipProtocol.start_join`."""
        self.membership.start_join(bootstrap_id)

    # ------------------------------------------------------------------
    # lifecycle: crash, heal, power loss, durable recovery
    # ------------------------------------------------------------------
    def handle_crash(self) -> None:
        """The host crashed: every component sheds its accepted work.

        Called by the deployment (``P2PSystem.crash_node``) at the moment
        of the crash — a dead node must not keep a scheduled service
        completion armed, hold admitted queries, or run fetches forever.
        """
        self._fan_out("on_crash")

    def clear_failure_state(self) -> None:
        """Forget pre-crash liveness evidence; called when this node heals.

        While the node was crashed its already-armed retry and probe
        timers kept firing with no acks or pongs able to arrive, so it
        accrued suspicion of peers that were fine all along.  Rejoining
        with that stale suspect set would make the healed node silently
        drop queries it should forward (NRT selection excludes suspects).
        """
        self._fan_out("clear_failure_state")

    def _record(self, *record) -> None:
        """Journal one durable change (a no-op until a journal is attached)."""
        if self.journal is not None:
            self.journal.record(*record)

    def attach_journal(self, journal) -> None:
        """Arm durability: every future durable change is journaled.

        The journal's snapshot callback is bound to this peer's live
        state, and a baseline snapshot is compacted immediately so a
        power loss right after attach still recovers the bootstrap
        state.  The baseline holds this peer's document records by
        reference; its store encodes it (see ``PeerJournal.compact``).
        """
        self.journal = journal
        journal.snapshot_fn = lambda: durable_state(self)
        self.dcrt.on_change = lambda category_id, entry: self._record(
            "dcrt", category_id, entry.cluster_id, entry.move_counter
        )
        self._fan_out("attach_journal", self._record)
        journal.compact()

    def lose_power(self) -> None:
        """Amnesia crash: volatile memory is gone; the disk survives.

        Called by ``P2PSystem.power_loss`` after ``handle_crash``.  What
        survives is exactly what lives on disk — the journal, partially
        fetched chunks, and chunk-corruption marks.  Documents are shed
        through ``drop_document`` so deployment hooks keep the holder
        directory consistent, but with the journal detached for the
        wipe: losing memory is not an acknowledged drop.  Every component
        that defines ``lose_power`` runs it (the query protocol takes its
        loop-detection window off the leak gauge there); the all-volatile
        protocol components are then wiped by being rebuilt.
        """
        journal, self.journal = self.journal, None
        try:
            for doc_id in list(self.docs):
                self.drop_document(doc_id)
        finally:
            self.journal = journal
        self._reset_tables(on_dcrt_change=self.dcrt.on_change)
        self._fan_out("lose_power")
        for component in self.protocols:
            # Re-initialised in place, so timers armed before the outage
            # and the dispatch table both see the blank component.
            component.__init__(self)
        self.lost_memory = True

    def restore_durable_state(self, state: dict) -> None:
        """Replay a materialized snapshot+WAL state after a power loss.

        The journal is detached for the replay — restoring already
        durable state must not re-journal it (a crash loop would grow
        the log unboundedly).  Hooks still fire so the deployment's
        holder directory and membership views heal alongside the peer.
        """
        journal, self.journal = self.journal, None
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
            self._fan_out("restore_durable_state", state)
        finally:
            self.journal = journal
        self.lost_memory = False
