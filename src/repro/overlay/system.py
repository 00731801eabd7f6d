"""The P2P system façade: a live simulated deployment.

:class:`P2PSystem` wires a built :class:`~repro.model.system.SystemInstance`
plus a category assignment (MaxFair output or a baseline) into a running
discrete-event simulation:

* one :class:`~repro.overlay.peer.Peer` per node, bootstrapped with the
  Figure 1 metadata (full DCRT, cluster-complete + sampled-remote NRT);
* per-cluster random connected graphs as the intra-cluster topology;
* document placement from a :class:`~repro.core.replication.ReplicationPlan`
  (or bare contributions when no plan is given);
* query workload execution with per-query outcome tracking;
* churn (node joins and leaves) and adaptation rounds.

This is the entry point the discrete-event experiments (E1-E3) and the
examples use.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.maxfair import Assignment
from repro.core.replication import ReplicationPlan
from repro.metrics.response import QueryOutcome
from repro.model.system import SystemInstance
from repro.model.workload import QueryWorkload
from repro.overlay import messages as m
from repro.overlay.adaptation import (
    AdaptationConfig,
    AdaptationCoordinator,
    AdaptationOutcome,
)
from repro.overlay.cluster import build_cluster_graph
from repro.overlay.peer import (
    DocInfo,
    MisbehaviorConfig,
    Peer,
    PeerConfig,
    PeerHooks,
)
# Submodule imports on purpose (see the matching note in peer.py):
# going through repro.content's __init__ here would close an import
# cycle while that package initializes.
from repro.content.chunks import ContentConfig
from repro.content.manifest import ContentManager, manifest_to_update
from repro.durability import DurabilityConfig, MemoryStore, PeerJournal
from repro.overlay.replication_manager import (
    ReplicationConfig,
    ReplicationManager,
)
from repro.overlay.service import ServiceConfig
from repro.reliability import ReliabilityConfig
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry

__all__ = ["P2PSystemConfig", "P2PSystem"]

#: neighbours per node in each cluster's connected random graph.
_CLUSTER_GRAPH_DEGREE = 4


@dataclass(frozen=True, slots=True)
class P2PSystemConfig:
    """Deployment-level tunables."""

    base_latency: float = 0.05
    bandwidth: float | None = 10_000_000.0
    nrt_capacity: int = 512
    #: how many random members of each *foreign* cluster a node knows.
    remote_nrt_sample: int = 4
    #: requester-side query cache size in documents (0 = off).
    cache_capacity: int = 0
    #: cache replacement policy ("lru" or "lfu").
    cache_policy: str = "lru"
    #: where the Section 3.1 cluster metadata lives: ``replicated`` = every
    #: node can locate holders (the pure-P2P reading); ``super_peer`` =
    #: only each cluster's most capable node can, and other members route
    #: document lookups through it (the hybrid reading).
    metadata_mode: str = "replicated"
    seed: int = 0
    #: ack/retry channel, query failover, and failure-detector knobs;
    #: pushed into every peer's config (off by default).
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)
    #: per-peer service model (finite service rate, bounded intake queue,
    #: admission control); pushed into every peer's config (off by default).
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: demand-adaptive replication loop (off by default — no manager is
    #: even constructed, so non-adaptive runs stay byte-identical).
    replication: ReplicationConfig = field(default_factory=ReplicationConfig)
    #: content data plane (chunked transfer, multi-source fetch, healing);
    #: off by default — documents stay metadata-only tokens.
    content: ContentConfig = field(default_factory=ContentConfig)
    #: durable crash recovery (per-peer WAL + snapshot journals, epoch
    #: fencing, reconciliation); off by default — no journals exist, no
    #: record is ever appended, and runs stay byte-identical.
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)

    def __post_init__(self) -> None:
        if self.metadata_mode not in ("replicated", "super_peer"):
            raise ValueError(
                f"metadata_mode must be 'replicated' or 'super_peer', "
                f"got {self.metadata_mode!r}"
            )


@dataclass(slots=True)
class _QueryRecord:
    outcome_args: dict
    responders: set[int] = field(default_factory=set)


class _SystemHooks(PeerHooks):
    """Routes peer callbacks into the system's bookkeeping."""

    def __init__(self, system: "P2PSystem") -> None:
        self.system = system

    def on_query_response(self, peer: Peer, response: m.QueryResponse) -> None:
        system = self.system
        if system._integrity_audit:
            # Response-integrity audit (armed only when a peer has been
            # marked misbehaving): an accepted response may only claim
            # documents its responder has actually stored at some point.
            for doc_id in response.doc_ids:
                if (response.responder_id, doc_id) not in system._ever_stored:
                    system._integrity_violations.append(
                        f"node {response.responder_id} answered query "
                        f"{response.query_id} claiming doc {doc_id} it "
                        f"never stored"
                    )
        record = self.system._queries.get(response.query_id)
        if record is None:
            return
        args = record.outcome_args
        if args["first_response_at"] is None:
            args["first_response_at"] = self.system.sim.now
            args["first_response_hops"] = response.hops
            self.system._h_latency.observe(
                self.system.sim.now - args["issued_at"]
            )
            if obs.TRACE.enabled:
                obs.TRACE.emit(
                    "query_resolve",
                    t=self.system.sim.now,
                    query=response.query_id,
                    hops=response.hops,
                    results=len(response.doc_ids),
                )
        record.responders.add(response.responder_id)
        args["results"] += len(response.doc_ids)
        # A response settles the query even if a failover deadline already
        # declared it failed — a late answer is still an answer.
        args["failed"] = False

    def on_bogus_response(self, peer: Peer, response: m.QueryResponse) -> None:
        self.system._bogus_rejections.append(
            (response.responder_id, response.query_id)
        )

    def on_query_failed(self, peer: Peer, query_id: int, reason: str) -> None:
        record = self.system._queries.get(query_id)
        if record is None:
            return
        if record.outcome_args["first_response_at"] is not None:
            # Failover raced a response that already arrived; not a failure.
            return
        record.outcome_args["failed"] = True

    def on_cluster_joined(self, peer: Peer, cluster_id: int) -> None:
        self.system._register_membership(peer, cluster_id)

    def on_document_stored(self, peer: Peer, doc_id: int) -> None:
        self.system._doc_holders.setdefault(doc_id, set()).add(peer.node_id)
        self.system._ever_stored.add((peer.node_id, doc_id))
        self.system._doc_holders_cache = None
        content = self.system.content
        if content is not None:
            content.note_stored(peer, doc_id)

    def on_document_dropped(self, peer: Peer, doc_id: int) -> None:
        holders = self.system._doc_holders.get(doc_id)
        if holders is not None:
            holders.discard(peer.node_id)
            self.system._doc_holders_cache = None

    def on_request_served(self, peer: Peer) -> None:
        self.system._node_loads_cache = None

    def lookup_holders(
        self, peer: Peer, cluster_id: int, doc_id: int
    ) -> tuple[int, ...]:
        """The cluster-metadata lookup (Section 3.1): live holders of a doc.

        In super-peer mode only each cluster's designated super peer holds
        the metadata; everyone else gets nothing and must route through it.
        """
        system = self.system
        if system.config.metadata_mode == "super_peer":
            if system._super_peers.get(cluster_id) != peer.node_id:
                return ()
        holders = system._doc_holders.get(doc_id, ())
        return tuple(
            sorted(
                node_id
                for node_id in holders
                if system.network.is_alive(node_id)
            )
        )

    def on_monitoring_complete(
        self, peer: Peer, cluster_id: int, round_id: int,
        counts: dict[int, int], weights: dict[int, float], subtree_size: int,
    ) -> None:
        coordinator = self.system._active_coordinator
        if coordinator is not None:
            coordinator.record_monitoring(cluster_id, counts, weights, subtree_size)

    def on_leave_notice(self, peer: Peer, notice: m.LeaveNotice) -> None:
        self.system._note_departure(notice)


class P2PSystem:
    """A live simulated deployment of the paper's architecture.

    Parameters
    ----------
    instance:
        The world: documents, categories, nodes.
    assignment:
        Complete category -> cluster assignment.
    plan:
        Optional replica placement; when omitted, nodes store only their
        own contributions.
    config:
        Deployment tunables.
    """

    def __init__(
        self,
        instance: SystemInstance,
        assignment: Assignment,
        plan: ReplicationPlan | None = None,
        config: P2PSystemConfig | None = None,
    ) -> None:
        if not assignment.is_complete():
            raise ValueError("P2PSystem requires a complete assignment")
        self.instance = instance
        self.assignment = assignment.copy()
        self.plan = plan
        self.config = config if config is not None else P2PSystemConfig()

        self.rngs = RngRegistry(root_seed=self.config.seed)
        self.sim = Simulator()
        #: in-sim first-response latencies, stamped with simulation time.
        self._h_latency = obs.sim_histogram(
            "overlay.first_response_latency", clock=lambda: self.sim.now
        )
        self.network = Network(
            self.sim,
            base_latency=self.config.base_latency,
            bandwidth=self.config.bandwidth,
        )
        self.hooks = _SystemHooks(self)
        self._peers: dict[int, Peer] = {}
        self._cluster_members: dict[int, set[int]] = {
            cluster_id: set() for cluster_id in range(assignment.n_clusters)
        }
        self._graphs: dict[int, object] = {}
        self._queries: dict[int, _QueryRecord] = {}
        self._active_coordinator: AdaptationCoordinator | None = None
        self._departed: set[int] = set()
        #: cluster metadata (Section 3.1): doc id -> holder node ids.
        self._doc_holders: dict[int, set[int]] = {}
        #: cluster id -> designated super peer (super-peer mode only).
        self._super_peers: dict[int, int] = {}
        #: queries need globally unique ids across workloads — peers keep
        #: the ids they have seen for loop detection (the paper's idQ is a
        #: unique pseudorandom number), so reusing one silences the query.
        self._next_query_id = 0
        #: memoized snapshots for the dict-rebuilding views experiments
        #: poll every round; ``None`` = dirty, rebuilt on next access.
        self._node_loads_cache: dict[int, int] | None = None
        self._doc_holders_cache: dict[int, set[int]] | None = None
        self._cluster_members_cache: dict[int, set[int]] | None = None
        #: nodes that consume without contributing (``Node.is_free_rider``
        #: at build time, plus empty-handed joiners); excluded from
        #: replica placement and capacity accounting.
        self._free_riders: set[int] = {
            node_id
            for node_id, node in instance.nodes.items()
            if node.is_free_rider
        }
        #: misbehaving-peer bookkeeping — the response-integrity audit is
        #: armed lazily (set_misbehavior / enable_integrity_audit) so
        #: honest worlds pay nothing and run no extra invariant checks.
        self._misbehaving: set[int] = set()
        self._integrity_audit = False
        self._integrity_violations: list[str] = []
        self._ever_stored: set[tuple[int, int]] = set()
        self._bogus_rejections: list[tuple[int, int]] = []
        #: durability bookkeeping — node id -> journal (empty when the
        #: subsystem is off), the system's view of per-category ownership
        #: epochs, and the append-only ledger of (category, epoch,
        #: cluster) ownership claims the single-owner-per-epoch invariant
        #: audits.
        self._journals: dict[int, PeerJournal] = {}
        self._category_epochs: dict[int, int] = {}
        self._epoch_claims: list[tuple[int, int, int]] = []

        #: content data plane: manifests, fetch ledger, healer; None
        #: when disabled (no manifests, no metrics, no RNG draws).  The
        #: attribute exists before bootstrap because the store/drop
        #: hooks consult it while bootstrap places documents.
        self.content: ContentManager | None = None
        self._bootstrap()
        #: demand-adaptive replication loop; None when disabled so the
        #: default world registers no replication metrics at all.
        self.replication: ReplicationManager | None = (
            ReplicationManager(self, self.config.replication)
            if self.config.replication.enabled
            else None
        )
        if self.config.content.enabled:
            self.content = ContentManager(self, self.config.content)
        if self.config.durability.enabled:
            # Journals attach after bootstrap so the baseline snapshot
            # covers the placed documents and the full DCRT.
            for node_id in sorted(self._peers):
                self._attach_journal(self._peers[node_id])

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @property
    def n_categories(self) -> int:
        return len(self.instance.categories)

    def _doc_info(self, doc_id: int) -> DocInfo:
        doc = self.instance.documents[doc_id]
        return DocInfo(
            doc_id=doc.doc_id, categories=doc.categories, size_bytes=doc.size_bytes
        )

    def _peer_config(self) -> PeerConfig:
        """Peer tunables with the system-level knobs applied."""
        return PeerConfig(
            nrt_capacity=self.config.nrt_capacity,
            cache_capacity=self.config.cache_capacity,
            cache_policy=self.config.cache_policy,
            reliability=self.config.reliability,
            service=self.config.service,
            content=self.config.content,
        )

    def _jitter_rng(self):
        """The named retry-jitter stream (never consulted without a retry)."""
        return self.rngs.stream("reliability.jitter")

    def _attach_journal(self, peer: Peer) -> None:
        """Give ``peer`` its durability journal (reusing a prior one).

        Reuse matters for re-admitted node ids: ``attach_journal``
        compacts a fresh baseline immediately, so a stale journal left
        by a departed incarnation is overwritten, never replayed.
        """
        journal = self._journals.get(peer.node_id)
        if journal is None:
            journal = PeerJournal(MemoryStore(), self.config.durability)
            self._journals[peer.node_id] = journal
        journal.flags["free_rider"] = peer.node_id in self._free_riders
        peer.attach_journal(journal)

    def _bootstrap(self) -> None:
        instance, assignment = self.instance, self.assignment
        protocol_rng = self.rngs.stream("protocol")
        topology_rng = self.rngs.stream("topology")
        peer_config = self._peer_config()

        # Create peers.
        jitter_rng = self._jitter_rng()
        for node_id, node in sorted(instance.nodes.items()):
            peer = Peer(
                node_id=node_id,
                capacity_units=node.capacity_units,
                transport=self.network,
                rng=protocol_rng,
                hooks=self.hooks,
                config=peer_config,
                jitter_rng=jitter_rng,
            )
            self._peers[node_id] = peer

        # Document placement: replication plan, else bare contributions.
        if self.plan is not None:
            for node_id, doc_ids in self.plan.node_docs.items():
                peer = self._peers.get(node_id)
                if peer is None:
                    continue
                for doc_id in doc_ids:
                    peer.store_document(self._doc_info(doc_id))
        for node_id, node in instance.nodes.items():
            peer = self._peers[node_id]
            for doc_id in node.contributed_doc_ids:
                if doc_id not in peer.docs:
                    peer.store_document(self._doc_info(doc_id))

        # Cluster membership from the assignment (contributors of a
        # cluster's categories are its members, Section 3.1).
        for node_id, cats in instance.node_categories.items():
            for category_id in cats:
                cluster_id = int(assignment.category_to_cluster[category_id])
                self._cluster_members[cluster_id].add(node_id)

        # Metadata bootstrap: full DCRT everywhere; NRT complete for own
        # clusters, sampled for foreign ones.
        all_nodes = sorted(self._peers)
        for peer in self._peers.values():
            for category_id in range(self.n_categories):
                peer.dcrt.set(
                    category_id,
                    int(assignment.category_to_cluster[category_id]),
                    int(assignment.move_counters[category_id]),
                )
        for cluster_id, members in self._cluster_members.items():
            member_list = sorted(members)
            members_array = np.array(member_list, dtype=np.int64)
            for node_id in member_list:
                peer = self._peers[node_id]
                # Each member knows a *different* random subset (up to the
                # NRT capacity) — handing everyone the same ordered list
                # would make the LRU evict the same members at every node
                # and starve them of traffic.
                keep = min(len(member_list), self.config.nrt_capacity)
                known = members_array[
                    topology_rng.permutation(len(members_array))[:keep]
                ]
                peer.join_cluster(cluster_id, known_members=known.tolist())
                for member in member_list:
                    peer.known_capabilities[cluster_id][member] = (
                        instance.nodes[member].capacity_units
                    )
            # Foreign-cluster samples for everyone else.
            if member_list:
                for node_id in all_nodes:
                    if node_id in members:
                        continue
                    peer = self._peers[node_id]
                    sample_size = min(
                        self.config.remote_nrt_sample, len(member_list)
                    )
                    picks = topology_rng.choice(
                        len(member_list), size=sample_size, replace=False
                    )
                    peer.nrt.add_many(
                        cluster_id, (member_list[int(i)] for i in picks)
                    )

        # Intra-cluster topology.
        for cluster_id, members in self._cluster_members.items():
            if not members:
                continue
            graph = build_cluster_graph(
                cluster_id,
                sorted(members),
                topology_rng,
                degree=_CLUSTER_GRAPH_DEGREE,
            )
            self._graphs[cluster_id] = graph
            for node_id in members:
                self._peers[node_id].set_cluster_neighbors(
                    cluster_id, graph.neighbors(node_id)
                )

        # Super-peer mode: designate each cluster's most capable member
        # and tell everyone where the metadata lives.
        if self.config.metadata_mode == "super_peer":
            for cluster_id, members in self._cluster_members.items():
                if not members:
                    continue
                super_peer = max(
                    members,
                    key=lambda n: (instance.nodes[n].capacity_units, n),
                )
                self._super_peers[cluster_id] = super_peer
                for peer in self._peers.values():
                    peer.super_peers[cluster_id] = super_peer

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def peer(self, node_id: int) -> Peer | None:
        peer = self._peers.get(node_id)
        if peer is None or node_id in self._departed:
            return None
        return peer

    def alive_peers(self):
        """All peers that have not departed or crashed."""
        return [
            peer
            for node_id, peer in sorted(self._peers.items())
            if node_id not in self._departed and self.network.is_alive(node_id)
        ]

    def peers_in_cluster(self, cluster_id: int):
        return [
            self._peers[node_id]
            for node_id in sorted(self._cluster_members.get(cluster_id, ()))
            if node_id not in self._departed and self.network.is_alive(node_id)
        ]

    def cluster_of_node(self, node_id: int) -> set[int]:
        peer = self._peers.get(node_id)
        return set(peer.memberships) if peer is not None else set()

    def node_loads(self) -> dict[int, int]:
        """Requests served per peer — the paper's load measure.

        The snapshot is cached and invalidated whenever any peer serves a
        request (or counters reset); treat the returned dict as read-only.
        """
        if self._node_loads_cache is None:
            self._node_loads_cache = {
                node_id: peer.requests_served
                for node_id, peer in sorted(self._peers.items())
            }
        return self._node_loads_cache

    def node_capacities(self) -> dict[int, float]:
        return {
            node_id: peer.capacity_units
            for node_id, peer in sorted(self._peers.items())
        }

    def node_cluster_map(self) -> dict[int, set[int]]:
        return {
            node_id: set(peer.memberships)
            for node_id, peer in sorted(self._peers.items())
        }

    # ------------------------------------------------------------------
    # introspection (read-only views for the chaos/invariant harness)
    # ------------------------------------------------------------------
    def all_node_ids(self) -> list[int]:
        """Sorted ids of every peer ever created (including departed)."""
        return sorted(self._peers)

    @property
    def overload_enabled(self) -> bool:
        """True when peers run the service model (overload invariants apply)."""
        return self.config.service.enabled

    @property
    def replication_enabled(self) -> bool:
        """True when the adaptive replication loop runs (bounds apply)."""
        return self.replication is not None

    @property
    def content_enabled(self) -> bool:
        """True when the content data plane runs (content invariants apply)."""
        return self.content is not None

    @property
    def durability_enabled(self) -> bool:
        """True when peers journal durable state (recovery invariants apply)."""
        return self.config.durability.enabled

    def journal(self, node_id: int) -> PeerJournal | None:
        """The node's durability journal (None when durability is off)."""
        return self._journals.get(node_id)

    def durable_docs_by_node(self) -> dict[int, set[int]]:
        """Doc ids each node's journal acknowledges as held.

        Crashed nodes included: their disks survive, which is what the
        conservation and no-acknowledged-write-loss checks need.
        """
        return {
            node_id: set(journal.durable_doc_ids())
            for node_id, journal in sorted(self._journals.items())
        }

    def epoch_claims(self) -> list[tuple[int, int, int]]:
        """Append-only ledger of (category, epoch, cluster) ownership claims."""
        return list(self._epoch_claims)

    def next_ownership_epoch(self, category_id: int) -> int:
        """The next safe ownership epoch for a category.

        Strictly above the system's recorded epoch *and* every peer's
        adopted epoch (including crashed peers — their journals replay on
        recovery), so a claim at this epoch fences all earlier owners.
        """
        best = self._category_epochs.get(category_id, 0)
        for peer in self._peers.values():
            known = peer.ownership_epochs.get(category_id, 0)
            if known > best:
                best = known
        return best + 1

    def departed_node_ids(self) -> list[int]:
        """Sorted ids of peers that left or crashed out of the system."""
        return sorted(self._departed)

    # ------------------------------------------------------------------
    # free riders and misbehaving peers
    # ------------------------------------------------------------------
    def free_rider_ids(self) -> frozenset[int]:
        """Node ids currently designated free riders (consume-only)."""
        return frozenset(self._free_riders)

    def is_free_rider(self, node_id: int) -> bool:
        return node_id in self._free_riders

    def contributing_capacity(self) -> float:
        """Total capacity of alive, contributing (non-free-riding) peers."""
        return sum(
            self.instance.nodes[node_id].capacity_units
            for node_id, peer in self._peers.items()
            if node_id not in self._free_riders
            and node_id not in self._departed
            and self.network.is_alive(node_id)
        )

    def set_misbehavior(self, node_id: int, config: MisbehaviorConfig) -> None:
        """Arm ``node_id`` with ``config`` (a :class:`MisbehaviorConfig`).

        Arming any peer also arms the response-integrity audit so the
        ``response-integrity`` invariant starts checking accepted
        responses against the storage ledger.
        """
        peer = self._peers.get(node_id)
        if peer is None:
            raise ValueError(f"unknown node id {node_id}")
        peer.arm_misbehavior(config)
        self._misbehaving.add(node_id)
        self.enable_integrity_audit()

    def enable_integrity_audit(self) -> None:
        """Start auditing accepted responses against the storage ledger."""
        self._integrity_audit = True

    @property
    def misbehavior_armed(self) -> bool:
        """True once the response-integrity audit is switched on."""
        return self._integrity_audit

    def misbehaving_node_ids(self) -> list[int]:
        return sorted(self._misbehaving)

    def integrity_failures(self) -> list[str]:
        """Accepted responses that claimed never-stored documents (cumulative)."""
        return list(self._integrity_violations)

    def bogus_rejections(self) -> list[tuple[int, int]]:
        """(responder_id, query_id) pairs rejected by requester-side checks."""
        return list(self._bogus_rejections)

    def cluster_members_view(self) -> dict[int, set[int]]:
        """Snapshot of the system's authoritative cluster membership sets.

        Cached and invalidated on membership changes (join/leave/departure
        notices); treat the returned dict and sets as read-only.
        """
        if self._cluster_members_cache is None:
            self._cluster_members_cache = {
                cluster_id: set(members)
                for cluster_id, members in sorted(self._cluster_members.items())
            }
        return self._cluster_members_cache

    def doc_holders_view(self) -> dict[int, set[int]]:
        """Snapshot of the cluster metadata: document id -> holder node ids.

        Cached and invalidated whenever a peer stores or drops a document;
        treat the returned dict and sets as read-only.
        """
        if self._doc_holders_cache is None:
            self._doc_holders_cache = {
                doc_id: set(holders)
                for doc_id, holders in sorted(self._doc_holders.items())
                if holders
            }
        return self._doc_holders_cache

    def stored_docs_by_node(self) -> dict[int, set[int]]:
        """Document ids physically held by each peer object.

        Includes departed and crashed peers: their copies still exist (a
        crashed node keeps its disk), which is what document-conservation
        checks need to distinguish "unreachable" from "destroyed".
        """
        return {
            node_id: set(peer.docs) for node_id, peer in sorted(self._peers.items())
        }

    def query_ledger(self) -> dict[int, dict]:
        """Copies of the current workload's per-query bookkeeping."""
        return {
            global_id: dict(record.outcome_args)
            for global_id, record in sorted(self._queries.items())
        }

    # ------------------------------------------------------------------
    # bookkeeping callbacks
    # ------------------------------------------------------------------
    def _register_membership(self, peer: Peer, cluster_id: int) -> None:
        members = self._cluster_members.setdefault(cluster_id, set())
        if peer.node_id in members:
            return
        members.add(peer.node_id)
        self._cluster_members_cache = None
        graph = self._graphs.get(cluster_id)
        if graph is None:
            graph = build_cluster_graph(
                cluster_id, [peer.node_id], self.rngs.stream("topology")
            )
            self._graphs[cluster_id] = graph
        else:
            existing = sorted(graph.members)
            rng = self.rngs.stream("topology")
            attach_count = min(_CLUSTER_GRAPH_DEGREE, len(existing))
            attach = [
                existing[int(i)]
                for i in rng.choice(len(existing), size=attach_count, replace=False)
            ] if existing else []
            graph.add_member(peer.node_id, attach)
            for other in attach:
                other_peer = self._peers.get(other)
                if other_peer is not None:
                    other_peer.cluster_neighbors.setdefault(cluster_id, set()).add(
                        peer.node_id
                    )
        peer.set_cluster_neighbors(cluster_id, graph.neighbors(peer.node_id))

    def _note_departure(self, notice: m.LeaveNotice) -> None:
        members = self._cluster_members.get(notice.cluster_id)
        if members is not None:
            members.discard(notice.leaver_id)
            self._cluster_members_cache = None
        graph = self._graphs.get(notice.cluster_id)
        if graph is not None:
            graph.remove_member(notice.leaver_id)

    def apply_reassignment(
        self, category_id: int, target_cluster: int, epoch: int = 0
    ) -> None:
        """Record a Phase-4 move in the authoritative assignment view.

        The destination cluster serves the category with its existing
        members (content arrives via the paired transfers); contributor
        membership only changes through the publish protocol.  A nonzero
        ``epoch`` (durability armed) records the ownership claim in the
        epoch ledger the single-owner-per-epoch invariant audits.
        """
        self.assignment.move(category_id, target_cluster)
        if epoch:
            if epoch > self._category_epochs.get(category_id, 0):
                self._category_epochs[category_id] = epoch
            self._epoch_claims.append((category_id, epoch, target_cluster))

    # ------------------------------------------------------------------
    # workload execution
    # ------------------------------------------------------------------
    def run_workload(
        self,
        workload: QueryWorkload,
        query_interval: float = 0.01,
        settle: bool = True,
        doc_targeted: bool = True,
        at_times: Sequence[float] | None = None,
    ) -> list[QueryOutcome]:
        """Issue a query workload and return per-query outcomes.

        Queries are spaced ``query_interval`` apart — or issued at the
        explicit per-query offsets ``at_times`` (relative to now; one per
        query, as produced by the scenario engine's event streams).  With
        ``settle`` the simulation runs to quiescence afterwards so all
        in-flight responses land before outcomes are finalized.
        ``doc_targeted`` requests the workload's specific documents (the
        retrieval case, default); disable it for category-level
        "any m results" queries.
        """
        queries = list(workload)
        if at_times is not None and len(at_times) != len(queries):
            raise ValueError(
                f"at_times has {len(at_times)} entries for "
                f"{len(queries)} queries"
            )
        self._queries.clear()
        base_time = self.sim.now
        for index, query in enumerate(queries):
            requester = self.peer(query.requester_id)
            if requester is None:
                continue
            offset = (
                at_times[index]
                if at_times is not None
                else index * query_interval
            )
            issue_at = base_time + offset
            global_id = self._next_query_id
            self._next_query_id += 1
            record = _QueryRecord(
                outcome_args={
                    "query_id": query.query_id,
                    "issued_at": issue_at,
                    "first_response_at": None,
                    "first_response_hops": None,
                    "results": 0,
                    "wanted": query.m,
                    "failed": False,
                }
            )
            self._queries[global_id] = record
            category_id = query.category_ids[0]
            doc_id = query.target_doc_id if doc_targeted else -1
            self.sim.schedule_at(
                issue_at,
                lambda r=requester, g=global_id, q=query, c=category_id, d=doc_id: (
                    r.start_query(g, c, q.m, target_doc_id=d)
                ),
            )
        self.sim.run()
        if settle:
            self.sim.run()
        return [
            QueryOutcome(**record.outcome_args)
            for record in self._queries.values()
        ]

    # ------------------------------------------------------------------
    # dynamics
    # ------------------------------------------------------------------
    def leave_node(self, node_id: int) -> None:
        """Gracefully remove a node (Section 6.3 leave protocol)."""
        peer = self.peer(node_id)
        if peer is None:
            return
        peer.membership.start_leave()
        self._departed.add(node_id)
        self._cluster_members_cache = None
        for members in self._cluster_members.values():
            members.discard(node_id)
        for graph in self._graphs.values():
            graph.remove_member(node_id)
        self.sim.run()

    def shutdown_node(self, node_id: int, handoff_rounds: int = 3) -> bool:
        """Gracefully shut a node down: drain, hand off, then leave.

        Distinct from :meth:`crash_node` (no goodbye) and from
        :meth:`leave_node` (goodbye, but any sole-holder content departs
        with the leaver): a graceful shutdown first lets in-flight work
        drain, then hands off every document whose *only* live copy sits
        on the leaver — the receiving node pulls the document group over
        the transfer protocol, and with the content data plane enabled
        the leaver also ships the document's manifest.  Hand-off is
        retried up to ``handoff_rounds`` times (messages may be lost);
        if some sole-holder document still cannot be placed — the
        cluster is partitioned away, or nobody else is alive — the
        shutdown is *aborted* and the node stays up, because leaving
        would destroy the last copy.  Returns whether the node left.
        """
        peer = self.peer(node_id)
        if peer is None or not self.network.is_alive(node_id):
            return False
        # Drain: let in-flight queries, transfers, and the node's own
        # service queue finish before deciding what must move.
        self.sim.run()
        for _ in range(max(1, handoff_rounds)):
            if not self.network.is_alive(node_id) or node_id in self._departed:
                # Crash-during-handoff: the leaver died mid-drain.  Abort
                # — the crash path owns the node now, and a graceful
                # leave here would count partially shipped manifests as
                # placed copies and destroy last copies whose transfers
                # never completed.
                return False
            orphans = self._sole_holder_docs(node_id)
            if not orphans:
                break
            for doc_id in orphans:
                target = self._handoff_target(doc_id, node_id)
                if target is None:
                    continue
                info = peer.docs[doc_id]
                category_id = info.categories[0] if info.categories else 0
                target.adaptation.pull_documents(node_id, category_id, [doc_id])
                if self.content is not None:
                    manifest = self.content.manifest_for(doc_id)
                    if manifest is not None:
                        peer._send(
                            target.node_id,
                            "manifest_update",
                            manifest_to_update(
                                manifest,
                                holders=self.content.live_holders(doc_id),
                            ),
                        )
            self.sim.run()
        if not self.network.is_alive(node_id) or node_id in self._departed:
            return False  # crashed while the final drain ran
        if self._sole_holder_docs(node_id):
            return False  # last copies could not be placed; stay up
        self.leave_node(node_id)
        return True

    def _sole_holder_docs(self, node_id: int) -> list[int]:
        """Documents whose only live holder is ``node_id``."""
        network = self.network
        orphans = []
        peer = self._peers[node_id]
        for doc_id in sorted(peer.docs):
            others = [
                holder
                for holder in self._doc_holders.get(doc_id, ())
                if holder != node_id and network.is_alive(holder)
            ]
            if not others:
                orphans.append(doc_id)
        return orphans

    def _handoff_target(self, doc_id: int, leaver_id: int) -> Peer | None:
        """Deterministic destination for a sole-holder document.

        Prefer live members of the document's home cluster, highest
        capacity first (node id as the tie break); fall back to any live
        peer when the cluster has nobody else.
        """
        info = self._peers[leaver_id].docs.get(doc_id)
        candidates: list[Peer] = []
        if info is not None and info.categories:
            cluster_id = int(
                self.assignment.category_to_cluster[info.categories[0]]
            )
            candidates = [
                peer
                for peer in self.peers_in_cluster(cluster_id)
                if peer.node_id != leaver_id
            ]
        if not candidates:
            candidates = [
                peer
                for peer in self.alive_peers()
                if peer.node_id != leaver_id
            ]
        if not candidates:
            return None
        return min(candidates, key=lambda p: (-p.capacity_units, p.node_id))

    def crash_node(self, node_id: int) -> None:
        """Fail a node without any goodbye (tests the timeout paths)."""
        self.network.crash(node_id)
        self._departed.add(node_id)
        peer = self._peers.get(node_id)
        if peer is not None:
            # Shed the node's admitted service-queue work and disarm its
            # scheduled completion — a dead node must not keep serving.
            peer.handle_crash()

    def power_loss(self, node_id: int) -> None:
        """Crash a node *and* wipe its volatile memory (amnesia crash).

        :meth:`crash_node` models an outage that keeps RAM — the healed
        peer resumes with its tables intact.  This models the real
        thing: everything in memory is gone and only the disk survives
        (the durability journal, partially fetched chunks, and the
        corruption marks — bad bits stay bad across a reboot).  The
        wipe drops documents through the normal hooks so the holder
        directory stays truthful, while the detached journal keeps
        acknowledging them for the replay at :meth:`recover_node`.
        """
        peer = self._peers.get(node_id)
        if peer is None:
            raise ValueError(f"unknown node id {node_id}")
        self.crash_node(node_id)
        peer.lose_power()

    def recover_node(self, node_id: int) -> Peer:
        """Heal a crashed node: the inverse of :meth:`crash_node`.

        A crash is a reboot, not a leave — the healed peer keeps its
        documents and memberships.  What it must *not* keep is the
        liveness evidence accrued while dark: its armed retry and probe
        timers kept firing with no acks or pongs able to arrive, so its
        failure detector accuses peers that were fine all along, and a
        stale suspect set silently blackholes queries routed through the
        healed node.  The state is cleared and the node re-announces
        itself so fellows drop *their* suspicion of it too.
        """
        peer = self._peers.get(node_id)
        if peer is None or node_id not in self._departed:
            raise ValueError(f"node {node_id} is not a departed member")
        if node_id not in self.network.crashed_nodes():
            raise ValueError(
                f"node {node_id} left gracefully; use join_node to re-admit"
            )
        self.network.recover(node_id)
        self._departed.discard(node_id)
        self._node_loads_cache = None
        self._cluster_members_cache = None
        peer.clear_failure_state()
        if peer.lost_memory:
            journal = self._journals.get(node_id)
            if journal is not None:
                # Replay snapshot + longest-valid-WAL-prefix, re-learn
                # topology, then re-verify holdings against manifests
                # before re-advertising anything.
                peer.restore_durable_state(journal.load())
                self._rewire_recovered(peer)
                self._verify_recovered_holdings(peer)
            # Without a journal the amnesia is permanent: the node comes
            # back empty-handed and must rely on rejoin and healing.
        peer.adaptation.announce_capabilities()
        self.sim.run()
        return peer

    def _rewire_recovered(self, peer: Peer) -> None:
        """Re-learn topology for a peer whose memory was just replayed.

        The cluster graphs never dropped the node (a crash keeps
        membership), so its neighbour links are all still there — only
        the peer's own copy of them was wiped.
        """
        for cluster_id in sorted(peer.memberships):
            members = self._cluster_members.get(cluster_id, ())
            peer.join_cluster(cluster_id, known_members=sorted(members))
            graph = self._graphs.get(cluster_id)
            if graph is not None and peer.node_id in graph.members:
                peer.set_cluster_neighbors(
                    cluster_id, graph.neighbors(peer.node_id)
                )

    def _verify_recovered_holdings(self, peer: Peer) -> list[int]:
        """Audit a recovered peer's holdings before they are trusted.

        Two failure modes hide in a replayed disk: the cached manifest
        may be stale (the document's version was bumped while the node
        was dark — sync it from the registry, i.e. replay the missed
        bump), and chunks may be corrupt.  A corrupt document with other
        live holders is *dropped* — its intact chunks become verified
        partial state — so the healer re-fetches it instead of the peer
        silently re-advertising bad bytes; a corrupt *sole* copy is kept
        (corrupt beats destroyed).  Returns the dropped doc ids.
        """
        if self.content is None:
            return []
        content = peer.content_state
        if content is None:
            return []
        dropped: list[int] = []
        for doc_id in sorted(peer.docs):
            registry = self.content.manifest_for(doc_id)
            if registry is not None:
                cached = content.manifests.get(doc_id)
                if cached is None or registry.version > cached.version:
                    content.manifests[doc_id] = registry
                    if content.on_manifest is not None:
                        content.on_manifest(doc_id, registry)
            bad = content.corrupt.get(doc_id)
            if not bad:
                continue
            others = [
                holder
                for holder in self.content.live_holders(doc_id)
                if holder != peer.node_id
            ]
            if not others:
                continue  # sole copy: corrupt beats destroyed
            manifest = content.manifests.get(doc_id, registry)
            if manifest is not None:
                intact = set(range(manifest.n_chunks)) - set(bad)
                if intact:
                    content.partial.setdefault(doc_id, set()).update(intact)
                    for index in sorted(intact):
                        self.content.note_partial(peer.node_id, doc_id, index)
            content.corrupt.pop(doc_id, None)
            peer.drop_document(doc_id)
            dropped.append(doc_id)
        return dropped

    def join_node(
        self,
        node_id: int,
        capacity_units: float,
        doc_infos: list[DocInfo] = (),
        bootstrap_id: int | None = None,
    ) -> Peer:
        """Admit a new node via the Section 6.3 join protocol."""
        if node_id in self._peers and node_id not in self._departed:
            raise ValueError(f"node {node_id} is already a member")
        peer = Peer(
            node_id=node_id,
            capacity_units=capacity_units,
            transport=self.network,
            rng=self.rngs.stream("protocol"),
            hooks=self.hooks,
            config=self._peer_config(),
            jitter_rng=self._jitter_rng(),
        )
        self._peers[node_id] = peer
        self._departed.discard(node_id)
        self._node_loads_cache = None
        # A joiner that brings nothing is a free rider until it serves
        # content; one that brings documents sheds the label.
        if doc_infos:
            self._free_riders.discard(node_id)
        else:
            self._free_riders.add(node_id)
        for info in doc_infos:
            peer.store_document(info)
        if self.config.durability.enabled:
            # Attach after the initial stores so the baseline snapshot
            # covers what the joiner brought.
            self._attach_journal(peer)
        if bootstrap_id is None:
            alive = [p.node_id for p in self.alive_peers() if p.node_id != node_id]
            if not alive:
                raise RuntimeError("no live node to bootstrap from")
            rng = self.rngs.stream("protocol")
            bootstrap_id = alive[int(rng.integers(0, len(alive)))]
        peer.start_join(bootstrap_id)
        self.sim.run()
        return peer

    def run_gossip_rounds(self, rounds: int = 1) -> None:
        """Run epidemic DCRT dissemination rounds across all live peers."""
        for _ in range(rounds):
            for peer in self.alive_peers():
                peer.membership.gossip_once()
            self.sim.run()

    def run_failure_detector_rounds(self, rounds: int = 1) -> None:
        """Run heartbeat probing rounds across all live peers.

        The failure detector is round-driven rather than self-scheduling
        (a standing periodic event would keep the queue alive forever and
        break every run-to-quiescence caller), so drivers invoke rounds
        explicitly — mirroring :meth:`run_gossip_rounds`.
        """
        for _ in range(rounds):
            for peer in self.alive_peers():
                peer.heartbeat_once()
            self.sim.run()

    def run_replication_round(self):
        """Run one demand-adaptive replication round and let transfers land.

        Round-driven like gossip and the failure detector (a standing
        periodic event would break run-to-quiescence callers); drivers
        interleave rounds with workload windows.  Returns the manager's
        :class:`~repro.overlay.replication_manager.RoundReport`, or None
        when adaptive replication is disabled.
        """
        if self.replication is None:
            return None
        report = self.replication.run_round()
        self.sim.run()
        return report

    def run_healing_round(self):
        """Run one anti-entropy healing scan and let its fetches land.

        The healer re-replicates documents whose live full-holder count
        fell below ``ContentConfig.replication_floor``.  Round-driven
        like replication (never self-scheduling); returns the healer's
        summary dict, or None when the content data plane is disabled.
        """
        if self.content is None:
            return None
        report = self.content.healer.run_round()
        self.sim.run()
        return report

    def run_reconciliation_round(self):
        """One anti-entropy ownership reconciliation pass (durability on).

        After a partition heals, live peers can disagree about which
        cluster serves a category — each side may have rebalanced
        independently.  Gossip alone converges on the higher move
        counter, which is not necessarily the authoritative side.  This
        pass finds every category with divergent beliefs among live
        peers and broadcasts a fresh authoritative
        :class:`~repro.overlay.messages.ReassignNotice` carrying a
        *fenced* epoch (above every known claim) and a move counter
        above every counter in the wild, so all peers converge on the
        assignment view's owner and stale owners are demoted to
        replicas.  Round-driven like gossip and healing; returns a
        summary dict, or None when durability is disabled.
        """
        if not self.durability_enabled:
            return None
        alive = self.alive_peers()
        beliefs: dict[int, set[int]] = {}
        for peer in alive:
            for category_id, entry in peer.dcrt.items():
                beliefs.setdefault(category_id, set()).add(entry.cluster_id)
        divergent = sorted(
            category_id
            for category_id, clusters in beliefs.items()
            if len(clusters) > 1
        )
        for category_id in divergent:
            target = int(self.assignment.category_to_cluster[category_id])
            epoch = self.next_ownership_epoch(category_id)
            counter = int(self.assignment.move_counters[category_id])
            for peer in alive:
                known = peer.dcrt.entry(category_id).move_counter
                if known > counter:
                    counter = known
            counter += 1
            # Jump the authoritative counter above every stale belief so
            # later legitimate moves (assignment counter + 1) still win.
            self.assignment.move_counters[category_id] = counter
            notice = m.ReassignNotice(
                category_id=category_id,
                source_cluster=target,
                target_cluster=target,
                move_counter=counter,
                epoch=epoch,
            )
            self.apply_reassignment(category_id, target, epoch=epoch)
            # Deterministic sender: the lowest-id live member of the
            # winning cluster, falling back to any live peer.
            senders = [
                peer
                for peer in self.peers_in_cluster(target)
                if self.network.is_alive(peer.node_id)
            ] or alive
            sender = min(senders, key=lambda p: p.node_id)
            for peer in alive:
                sender._send(peer.node_id, "reassign_notice", notice)
        self.sim.run()
        return {"divergent": len(divergent), "categories": divergent}

    def run_adaptation(
        self, round_id: int = 0, config: AdaptationConfig | None = None
    ) -> AdaptationOutcome:
        """Execute one four-phase adaptation round (Section 6.1.2)."""
        coordinator = AdaptationCoordinator(self, config=config)
        self._active_coordinator = coordinator
        try:
            return coordinator.run_round(round_id)
        finally:
            self._active_coordinator = None

    def reset_hit_counters(self) -> None:
        """Start a fresh observation period (between adaptation rounds)."""
        self._node_loads_cache = None
        for peer in self._peers.values():
            peer.hit_counters.clear()
            peer.requests_served = 0
