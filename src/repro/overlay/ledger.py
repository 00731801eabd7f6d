"""What a world's peers report: the :class:`~repro.overlay.peer.PeerHooks`
every peer of a :class:`~repro.overlay.system.P2PSystem` is built with,
and the books its callbacks write — per-query outcomes, the Section 3.1
cluster metadata (document -> holders), and the integrity audit once a
peer is armed to lie (:mod:`repro.overlay.misbehavior`).
"""

from __future__ import annotations

from collections.abc import Iterable, Set
from dataclasses import fields
from operator import attrgetter
from typing import TYPE_CHECKING

from repro import obs
from repro.metrics.response import QueryOutcome
from repro.overlay import messages as m
from repro.overlay.peer import Peer, PeerHooks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.workload import Query
    from repro.overlay.misbehavior import IntegrityAudit
    from repro.overlay.topology import ClusterTopology
    from repro.sim.engine import Simulator
    from repro.sim.network import Network

__all__ = ["WorldLedger"]

_NO_HOLDERS: frozenset[int] = frozenset()


class _QueryRecord:
    """One issued query's :class:`QueryOutcome` fields so far, in order."""

    __slots__ = tuple(field.name for field in fields(QueryOutcome))

    def __init__(self, query_id: int, issued_at: float, wanted: int) -> None:
        self.query_id = query_id
        self.issued_at = issued_at
        self.first_response_at: float | None = None
        self.first_response_hops: int | None = None
        self.results = 0
        self.wanted = wanted
        self.failed = False


_RECORD_FIELDS = attrgetter(*_QueryRecord.__slots__)


class WorldLedger(PeerHooks):
    """Routes peer callbacks into the world's bookkeeping."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        topology: "ClusterTopology",
    ) -> None:
        self._sim = sim
        self._network = network
        self._topology = topology
        #: global query id -> its outcome so far, for the current workload.
        self._queries: dict[int, _QueryRecord] = {}
        #: queries need globally unique ids across workloads — peers keep
        #: the ids they have seen for loop detection (the paper's idQ is a
        #: unique pseudorandom number), so reusing one silences the query.
        self._next_query_id = 0
        #: in-sim first-response latencies, stamped with simulation time.
        self._h_latency = obs.sim_histogram(
            "overlay.first_response_latency", clock=lambda: sim.now
        )
        #: cluster metadata (Section 3.1): doc id -> holder node ids.
        #: Bounded by documents x peers; a drop leaves an empty set.
        self._doc_holders: dict[int, set[int]] = {}
        #: memoized snapshot for the dict-rebuilding view the chaos checker
        #: polls at every quiescent point; ``None`` = dirty.
        self._doc_holders_view: dict[int, set[int]] | None = None
        #: ``document_stored`` listeners of the world's subsystems.
        self.stored_listeners: tuple = ()
        #: the response-integrity audit (an ``IntegrityAudit``), attached
        #: by the first ``misbehavior.arm``; None in an honest world.
        self.audit: "IntegrityAudit | None" = None

    # ------------------------------------------------------------------
    # query records
    # ------------------------------------------------------------------
    def begin_workload(self) -> None:
        self._queries.clear()

    def open_query(self, query: "Query", issued_at: float) -> int:
        """Start the record of one issued query; returns its global id.

        The records last one workload.  The id ints outlive them in the
        peers' loop-detection windows, which forget them after at most
        two ``SEEN_QUERY_TTL`` of transport time.
        """
        global_id = self._next_query_id
        self._next_query_id += 1
        self._queries[global_id] = _QueryRecord(query.query_id, issued_at, query.m)
        return global_id

    def outcomes(self) -> list[QueryOutcome]:
        return [
            QueryOutcome(*_RECORD_FIELDS(record)) for record in self._queries.values()
        ]

    def on_query_response(self, peer: Peer, response: m.QueryResponse) -> None:
        if self.audit is not None:
            self.audit.check(response)
        record = self._queries.get(response.query_id)
        if record is None:
            return
        if record.first_response_at is None:
            now = self._sim.now
            record.first_response_at = now
            record.first_response_hops = response.hops
            self._h_latency.observe(now - record.issued_at)
            if obs.TRACE.enabled:
                obs.TRACE.emit(
                    "query_resolve",
                    t=now,
                    query=response.query_id,
                    hops=response.hops,
                    results=len(response.doc_ids),
                )
        record.results += len(response.doc_ids)
        # A response settles the query even if a failover deadline already
        # declared it failed — a late answer is still an answer.
        record.failed = False

    def on_query_failed(self, peer: Peer, query_id: int, reason: str) -> None:
        record = self._queries.get(query_id)
        # A failover that raced an already-arrived response is no failure.
        if record is not None and record.first_response_at is None:
            record.failed = True

    # ------------------------------------------------------------------
    # holder directory
    # ------------------------------------------------------------------
    def on_document_stored(self, peer: Peer, doc_id: int) -> None:
        holders = self._doc_holders.get(doc_id)
        if holders is None:
            self._doc_holders[doc_id] = {peer.node_id}
        else:
            holders.add(peer.node_id)
        self._doc_holders_view = None
        for listener in self.stored_listeners:
            listener(peer, doc_id)

    def record_placement(self, node_id: int, doc_ids: Iterable[int]) -> None:
        """:meth:`on_document_stored` for every document one peer was handed
        at world bootstrap, before any subsystem listens."""
        if self.stored_listeners:
            raise RuntimeError("bulk placement would bypass the store listeners")
        doc_holders = self._doc_holders
        for doc_id in doc_ids:
            holders = doc_holders.get(doc_id)
            if holders is None:
                doc_holders[doc_id] = {node_id}
            else:
                holders.add(node_id)
        self._doc_holders_view = None

    def on_document_dropped(self, peer: Peer, doc_id: int) -> None:
        holders = self._doc_holders.get(doc_id)
        if holders is not None and peer.node_id in holders:
            holders.discard(peer.node_id)
            self._doc_holders_view = None
            if self.audit is not None:
                self.audit.note_drop(peer.node_id, doc_id)

    def holders(self, doc_id: int) -> Set[int]:
        """Nodes recorded as holding ``doc_id``, crashed ones included.

        The ledger's own set, not a copy: read-only for callers, and only
        valid until the next store or drop.  Control rounds that scan every
        document read this instead of :meth:`doc_holders_view`, whose sorted
        full copy every cache fill invalidates.
        """
        return self._doc_holders.get(doc_id, _NO_HOLDERS)

    def live_holders(self, doc_id: int) -> list[int]:
        """Sorted live nodes holding the full document."""
        return sorted(
            self._network.alive_among(self._doc_holders.get(doc_id, _NO_HOLDERS))
        )

    def lookup_holders(
        self, peer: Peer, cluster_id: int, doc_id: int
    ) -> tuple[int, ...]:
        """The cluster-metadata lookup (Section 3.1): live holders of a doc.

        In super-peer mode only each cluster's designated super peer holds
        the metadata; everyone else gets nothing and must route through it.
        """
        super_peers = self._topology.super_peers  # empty in replicated mode
        if super_peers and super_peers.get(cluster_id) != peer.node_id:
            return ()
        return tuple(self.live_holders(doc_id))

    def doc_holders_view(self) -> dict[int, set[int]]:
        """Snapshot of the cluster metadata: document id -> holder node ids.

        Cached and invalidated whenever a peer stores or drops a document;
        treat the returned dict and sets as read-only.
        """
        if self._doc_holders_view is None:
            self._doc_holders_view = {
                doc_id: set(holders)
                for doc_id, holders in sorted(self._doc_holders.items())
                if holders
            }
        return self._doc_holders_view

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def on_cluster_joined(self, peer: Peer, cluster_id: int) -> None:
        self._topology.admit(peer, cluster_id)

    def on_leave_notice(self, peer: Peer, notice: m.LeaveNotice) -> None:
        self._topology.note_departure(notice)
