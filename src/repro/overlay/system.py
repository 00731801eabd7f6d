"""The P2P system façade: a live simulated deployment.

:class:`P2PSystem` wires a built :class:`~repro.model.system.SystemInstance`
plus a category assignment (MaxFair output or a baseline) into a running
discrete-event simulation.  It is the *world core*: one
:class:`~repro.overlay.peer.Peer` per node bootstrapped with the Figure 1
metadata, document placement from a replication plan (or bare
contributions), query workloads with per-query outcomes, and the
lifecycle verbs (join, leave, shutdown, crash, power loss, recover).
Optional features are *subsystems* that exist only when their config
enables them; the core reaches them only through ``emit`` and ``rounds``
(``docs/architecture.md`` §4.7 has the table).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from types import MappingProxyType

from repro.bulk import collector_paused
from repro.core.maxfair import Assignment
from repro.core.replication import ReplicationPlan
from repro.metrics.response import QueryOutcome
from repro.model.system import SystemInstance
from repro.model.workload import QueryWorkload
from repro.overlay.adaptation import (
    AdaptationConfig,
    AdaptationCoordinator,
    AdaptationOutcome,
)
from repro.overlay.ledger import WorldLedger
from repro.overlay.metadata import DCRTEntry
from repro.overlay.peer import DocInfo, Peer, PeerConfig
from repro.overlay.recovery import RecoveryCoordinator
from repro.overlay.topology import ClusterTopology
# Submodule imports on purpose (see the matching note in peer.py):
# going through repro.content's __init__ here would close an import
# cycle while that package initializes.
from repro.content.chunks import ContentConfig
from repro.content.manifest import ContentManager
from repro.durability import DurabilityConfig, PeerJournal
from repro.overlay.replication_manager import (
    ReplicationConfig,
    ReplicationManager,
    graceful_shutdown,
)
from repro.overlay.service import ServiceConfig
from repro.reliability import ReliabilityConfig
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry

__all__ = ["P2PSystemConfig", "P2PSystem"]

#: lifecycle events the core fans out to the subsystems that define a
#: method of that name (``document_stored`` through the ledger's store hook).
EVENTS = ("peer_created", "peer_recovered", "document_stored")

#: every world's one-way message latency (simulated seconds) and link
#: bandwidth (bytes per simulated second).
BASE_LATENCY = 0.05
BANDWIDTH = 10_000_000.0

@dataclass(frozen=True, slots=True)
class P2PSystemConfig:
    """Deployment-level tunables."""

    #: how many random members of each *foreign* cluster a node knows.
    remote_nrt_sample: int = 4
    #: requester-side query cache size in documents (0 = off).
    cache_capacity: int = 0
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

    @collector_paused
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
        self.network = Network(
            self.sim,
            base_latency=BASE_LATENCY,
            bandwidth=BANDWIDTH,
        )
        self._peers: dict[int, Peer] = {}
        #: every peer ever created (departed ones included), read-only.
        self.peers = MappingProxyType(self._peers)
        self.topology = ClusterTopology(
            self.peers, assignment.n_clusters, self.rngs.stream("topology")
        )
        self.ledger = WorldLedger(self.sim, self.network, self.topology)
        self._departed: set[int] = set()
        #: nodes that consume without contributing (``Node.is_free_rider``
        #: at build time, plus empty-handed joiners); excluded from
        #: replica placement and capacity accounting.
        self._free_riders: set[int] = {
            node_id
            for node_id, node in instance.nodes.items()
            if node.is_free_rider
        }
        #: peer tunables with the system-level knobs applied.
        self._peer_config = PeerConfig(
            cache_capacity=self.config.cache_capacity,
            reliability=self.config.reliability,
            service=self.config.service,
            content=self.config.content,
        )
        self._bootstrap()

        #: optional features, each one object that exists only when its
        #: config enables it (a default world registers no metric and
        #: draws no randomness for any of them).  Built after bootstrap —
        #: journals snapshot the placed documents and the full DCRT — and
        #: listed in control-round order: ownership, placement, repair.
        self.subsystems: list = []
        self.recovery: RecoveryCoordinator | None = self._build(
            RecoveryCoordinator, self.config.durability
        )
        self.replication: ReplicationManager | None = self._build(
            ReplicationManager, self.config.replication
        )
        self.content: ContentManager | None = self._build(
            ContentManager, self.config.content
        )
        #: round name -> one iteration of that loop (without the drain).
        self.rounds = {"gossip": self._gossip_once, "detector": self._heartbeat_once}
        self.rounds.update((s.round_name, s.run_round) for s in self.subsystems)
        # Listeners are bound once, here, so a world without the feature
        # pays an empty loop on the store and lifecycle paths.
        self._listeners = {
            event: tuple(
                getattr(subsystem, event)
                for subsystem in self.subsystems
                if hasattr(subsystem, event)
            )
            for event in EVENTS
        }
        self.ledger.stored_listeners = self._listeners["document_stored"]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, factory, config):
        """The subsystem ``config`` enables, registered; None when off."""
        if not config.enabled:
            return None
        subsystem = factory(self, config)
        self.subsystems.append(subsystem)
        return subsystem

    def emit(self, event: str, *args) -> None:
        """Fan a lifecycle event out to the subsystems that define it."""
        for listener in self._listeners[event]:
            listener(*args)

    @property
    def n_categories(self) -> int:
        return len(self.instance.categories)

    def _new_peer(self, node_id: int, capacity_units: float) -> Peer:
        peer = Peer(
            node_id=node_id,
            capacity_units=capacity_units,
            transport=self.network,
            rng=self.rngs.stream("protocol"),
            hooks=self.ledger,
            config=self._peer_config,
            # The named retry-jitter stream (never consulted without a retry).
            jitter_rng=self.rngs.stream("reliability.jitter"),
        )
        self._peers[node_id] = peer
        return peer

    def _bootstrap(self) -> None:
        instance, assignment = self.instance, self.assignment
        for node_id, node in sorted(instance.nodes.items()):
            self._new_peer(node_id, node.capacity_units)

        # Document placement: replication plan, else bare contributions.
        # Every holder of a document shares its one (frozen) DocInfo, and
        # a peer takes its whole set in one step: ``store_document`` minus
        # the journal record and the store listeners, which do not exist
        # until the subsystems are built after this.
        infos = {
            doc_id: DocInfo(doc.doc_id, doc.categories, doc.size_bytes)
            for doc_id, doc in instance.documents.items()
        }
        if not all(map(attrgetter("categories"), infos.values())):
            raise ValueError("a document must have at least one category")

        def place(peer: Peer, doc_ids) -> None:
            if peer.journal is not None:
                raise RuntimeError("bulk placement would bypass the journal")
            peer.docs.update(zip(doc_ids, map(infos.__getitem__, doc_ids)))
            self.ledger.record_placement(peer.node_id, doc_ids)

        if self.plan is not None:
            for node_id, doc_ids in self.plan.node_docs.items():
                peer = self._peers.get(node_id)
                if peer is not None:
                    place(peer, doc_ids)
        for node_id, node in instance.nodes.items():
            peer = self._peers[node_id]
            held = peer.docs
            place(peer, [d for d in node.contributed_doc_ids if d not in held])

        # Metadata bootstrap: full DCRT everywhere (one table of frozen
        # rows, shared until a peer changes it), then cluster membership,
        # NRTs and the intra-cluster graphs.
        dcrt = {
            category_id: DCRTEntry(
                int(assignment.category_to_cluster[category_id]),
                int(assignment.move_counters[category_id]),
            )
            for category_id in range(self.n_categories)
        }
        for peer in self._peers.values():
            peer.dcrt.share(dcrt)
        self.topology.bootstrap(instance, assignment, self.config)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def peer(self, node_id: int) -> Peer | None:
        peer = self._peers.get(node_id)
        if peer is None or node_id in self._departed:
            return None
        return peer

    def is_live(self, node_id: int) -> bool:
        """True while the node has neither departed nor crashed."""
        return node_id not in self._departed and self.network.is_alive(node_id)

    def alive_peers(self):
        """All peers that have not departed or crashed."""
        return [
            peer
            for node_id, peer in sorted(self._peers.items())
            if self.is_live(node_id)
        ]

    def peers_in_cluster(self, cluster_id: int):
        return [
            self._peers[node_id]
            for node_id in sorted(self.topology.members.get(cluster_id, ()))
            if self.is_live(node_id)
        ]

    def node_loads(self) -> dict[int, int]:
        """Requests served per peer — the paper's load measure."""
        return {
            node_id: peer.requests_served
            for node_id, peer in sorted(self._peers.items())
        }

    def node_capacities(self) -> dict[int, float]:
        return {
            node_id: peer.capacity_units
            for node_id, peer in sorted(self._peers.items())
        }

    # ------------------------------------------------------------------
    # introspection (read-only views for the chaos/invariant harness)
    # ------------------------------------------------------------------
    def all_node_ids(self) -> list[int]:
        """Sorted ids of every peer ever created (including departed)."""
        return sorted(self._peers)

    def departed_node_ids(self) -> list[int]:
        """Sorted ids of peers that left or crashed out of the system."""
        return sorted(self._departed)

    def journal(self, node_id: int) -> PeerJournal | None:
        """The node's durability journal (None when durability is off)."""
        peer = self._peers.get(node_id)
        return peer.journal if peer is not None else None

    def cluster_members_view(self) -> dict[int, set[int]]:
        """Snapshot of the authoritative cluster membership sets (cached;
        treat the returned dict and sets as read-only)."""
        return self.topology.members_view()

    def doc_holders_view(self) -> dict[int, set[int]]:
        """Snapshot of the cluster metadata, document id -> holder node
        ids (cached; treat the returned dict and sets as read-only)."""
        return self.ledger.doc_holders_view()

    def stored_docs_by_node(self) -> dict[int, set[int]]:
        """Document ids physically held by each peer object.

        Includes departed and crashed peers: their copies still exist (a
        crashed node keeps its disk), which is what document-conservation
        checks need to distinguish "unreachable" from "destroyed".
        """
        return {
            node_id: set(peer.docs) for node_id, peer in sorted(self._peers.items())
        }

    # ------------------------------------------------------------------
    # free riders
    # ------------------------------------------------------------------
    def is_free_rider(self, node_id: int) -> bool:
        return node_id in self._free_riders

    def apply_reassignment(
        self, category_id: int, target_cluster: int, epoch: int = 0
    ) -> None:
        """Record a Phase-4 move in the authoritative assignment view.

        The destination cluster serves the category with its existing
        members (content arrives via the paired transfers); contributor
        membership only changes through the publish protocol.  A nonzero
        ``epoch`` (only issued with durability armed) is recorded as an
        ownership claim in the recovery coordinator's epoch ledger.
        """
        self.assignment.move(category_id, target_cluster)
        if epoch:
            self.recovery.claim(category_id, epoch, target_cluster)

    # ------------------------------------------------------------------
    # workload execution
    # ------------------------------------------------------------------
    def run_workload(
        self,
        workload: QueryWorkload,
        query_interval: float = 0.01,
        doc_targeted: bool = True,
        at_times: Sequence[float] | None = None,
    ) -> list[QueryOutcome]:
        """Issue a query workload and return per-query outcomes.

        Queries are spaced ``query_interval`` apart — or issued at the
        explicit per-query offsets ``at_times`` (relative to now; one per
        query, as ``Interpreter.play`` passes for a compiled scenario).  The
        simulation then runs to quiescence, so all in-flight responses
        land before outcomes are finalized.  ``doc_targeted`` requests
        the workload's specific documents (the retrieval case, default);
        disable it for category-level "any m results" queries.
        """
        queries = list(workload)
        if at_times is not None and len(at_times) != len(queries):
            raise ValueError(
                f"at_times has {len(at_times)} entries for "
                f"{len(queries)} queries"
            )
        self.ledger.begin_workload()
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
            global_id = self.ledger.open_query(query, issue_at)
            category_id = query.category_ids[0]
            doc_id = query.target_doc_id if doc_targeted else -1
            self.sim.schedule_at(
                issue_at,
                lambda r=requester, g=global_id, q=query, c=category_id, d=doc_id: (
                    r.start_query(g, c, q.m, target_doc_id=d)
                ),
            )
        self.sim.run()
        return self.ledger.outcomes()

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
        self.topology.remove(node_id)
        self.sim.run()

    def shutdown_node(self, node_id: int) -> bool:
        """Gracefully shut a node down: drain, move its documents to their
        replica targets, then leave (see :func:`~repro.overlay.
        replication_manager.graceful_shutdown`).  Returns whether the node
        left."""
        return graceful_shutdown(self, node_id)

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
        peer.clear_failure_state()
        if peer.lost_memory:
            # Durability replays the journal and re-learns topology, then
            # content re-verifies the holdings before re-advertising them.
            # With no journal the amnesia is permanent: the node is back
            # empty-handed and relies on rejoin and healing.
            self.emit("peer_recovered", peer)
            peer.lost_memory = False
        peer.adaptation.announce_capabilities()
        self.sim.run()
        return peer

    def join_node(
        self,
        node_id: int,
        capacity_units: float,
        doc_infos: list[DocInfo] = (),
    ) -> Peer:
        """Admit a new node via the Section 6.3 join protocol, bootstrapped
        from a live member drawn from the ``protocol`` stream."""
        if node_id in self._peers and node_id not in self._departed:
            raise ValueError(f"node {node_id} is already a member")
        peer = self._new_peer(node_id, capacity_units)
        self._departed.discard(node_id)
        # A joiner that brings nothing is a free rider until it serves
        # content; one that brings documents sheds the label.
        if doc_infos:
            self._free_riders.discard(node_id)
        else:
            self._free_riders.add(node_id)
        for info in doc_infos:
            peer.store_document(info)
        # After the initial stores, so a journal's baseline snapshot
        # covers what the joiner brought.
        self.emit("peer_created", peer)
        alive = [p.node_id for p in self.alive_peers() if p.node_id != node_id]
        if not alive:
            raise RuntimeError("no live node to bootstrap from")
        rng = self.rngs.stream("protocol")
        peer.start_join(alive[int(rng.integers(0, len(alive)))])
        self.sim.run()
        return peer

    # ------------------------------------------------------------------
    # control rounds
    # ------------------------------------------------------------------
    def _gossip_once(self) -> None:
        for peer in self.alive_peers():
            peer.membership.gossip_once()

    def _heartbeat_once(self) -> None:
        for peer in self.alive_peers():
            peer.heartbeat_once()

    def run_round(self, name: str, rounds: int = 1):
        """Run ``rounds`` iterations of the loop ``name``, draining each.

        Loops are round-driven, never self-scheduling: a standing
        periodic event would break every run-to-quiescence caller.  A
        loop this world does not run (``rounds`` has no entry) is a
        no-op.  Returns the last iteration's report, if any.
        """
        step = self.rounds.get(name)
        report = None
        if step is not None:
            for _ in range(rounds):
                report = step()
                self.sim.run()
        return report

    def run_control_round(self) -> dict:
        """One round of every registered subsystem, in list order:
        ownership (``reconciliation``), then placement (``replication``),
        then repair (``healing``, against the settled owners and
        placements).  Returns ``round name -> report``."""
        return {
            subsystem.round_name: self.run_round(subsystem.round_name)
            for subsystem in self.subsystems
        }

    def run_gossip_rounds(self, rounds: int = 1) -> None:
        """Epidemic DCRT dissemination rounds across all live peers."""
        self.run_round("gossip", rounds)

    def run_failure_detector_rounds(self, rounds: int = 1) -> None:
        """Heartbeat probing rounds across all live peers."""
        self.run_round("detector", rounds)

    def run_reconciliation_round(self):
        """One ownership reconciliation pass; None when durability is off."""
        return self.run_round("reconciliation")

    def run_replication_round(self):
        """One demand-adaptive replication round; None when it is off."""
        return self.run_round("replication")

    def run_healing_round(self):
        """One anti-entropy healing scan; None when content is off."""
        return self.run_round("healing")

    def run_adaptation(
        self, round_id: int = 0, config: AdaptationConfig | None = None
    ) -> AdaptationOutcome:
        """Execute one four-phase adaptation round (Section 6.1.2)."""
        return AdaptationCoordinator(self, config=config).run_round(round_id)

    def reset_hit_counters(self) -> None:
        """Start a fresh observation period (between adaptation rounds)."""
        for peer in self._peers.values():
            peer.hit_counters.clear()
            peer.requests_served = 0
