"""Adaptation: the node side of Section 6.1.

The :class:`AdaptationProtocol` component of a
:class:`~repro.overlay.peer.Peer`:

* capability dissemination and leader election (Section 6.1.1; leader
  liveness comes from the failure detector's suspects, which election
  strikes);
* the Phase-1 monitoring tree: hit-counter aggregation with first-seen
  parent selection, duplicate suppression, and timeouts for dead children
  (Section 6.1.2);
* the node side of the lazy rebalancing protocol: metadata updates with
  move counters, paired document-group transfers, and pull-on-demand for
  not-yet-transferred content.

All of its state is volatile: a power loss rebuilds the component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro import obs
from repro.overlay import messages as m
from repro.overlay.cluster import elect_leader
from repro.overlay.messages import DocInfo
from repro.overlay.metadata import DCRTEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.peer import Peer

__all__ = ["AdaptationProtocol"]

#: simulated-time budget for a monitoring subtree before giving up on
#: missing children.
_MONITORING_TIMEOUT = 5.0
#: upper bound on the stagger applied to scheduled group transfers
#: ("the first opportune time", Section 6.1.2 step 2).
_TRANSFER_STAGGER = 2.0


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
class _PendingTransfer:
    """A document group owed to this peer by its paired source node."""

    category_id: int
    source_id: int
    requested: bool = False
    #: queries waiting for the content (pull-on-demand, lazy step 4).
    waiting_queries: list[m.QueryMessage] = field(default_factory=list)


class AdaptationProtocol:
    """Election, monitoring, and reassign/transfer state of one peer."""

    __slots__ = (
        "peer", "_monitoring", "_pending_transfers",
        "_transfer_partners", "_designated_docs",
    )

    def __init__(self, peer: "Peer") -> None:
        self.peer = peer
        self._monitoring: dict[tuple[int, int], _MonitoringRound] = {}
        #: category -> transfer owed to us during a category move.
        self._pending_transfers: dict[int, _PendingTransfer] = {}
        #: category -> destination partners this node (as a source) must
        #: split its document group across.
        self._transfer_partners: dict[int, tuple[int, ...]] = {}
        #: category -> documents the coordinator designated this node to
        #: ship (deduplicates replicated content across source nodes).
        self._designated_docs: dict[int, tuple[int, ...]] = {}

    @classmethod
    def registrations(cls) -> dict:
        """The kinds this class owns: ``kind -> (payload class, handler)``."""
        return {
            "capability": (m.CapabilityAnnounce, cls.handle_capability),
            "hit_count_request": (
                m.HitCountRequest,
                cls.handle_hit_count_request,
            ),
            "hit_count_reply": (m.HitCountReply, cls.handle_hit_count_reply),
            "load_report": (m.LoadReport, cls.handle_load_report),
            "reassign_notice": (m.ReassignNotice, cls.handle_reassign_notice),
            "transfer_request": (
                m.TransferRequest,
                cls.handle_transfer_request,
            ),
            "transfer_data": (m.TransferData, cls.handle_transfer_data),
        }

    # ------------------------------------------------------------------
    # capability gossip and leader election (Section 6.1.1)
    # ------------------------------------------------------------------
    def announce_capabilities(self) -> None:
        """Tell cluster neighbours everything known about member capacities."""
        for cluster_id in self.peer.memberships:
            capabilities = self.peer.learn_capabilities(
                cluster_id, ((self.peer.node_id, self.peer.capacity_units),)
            )
            payload = m.CapabilityAnnounce(
                cluster_id=cluster_id,
                capabilities=tuple(sorted(capabilities.items())),
            )
            for neighbor in self.peer.cluster_neighbors.get(cluster_id, ()):
                self.peer._send(neighbor, "capability", payload)

    def handle_capability(self, announce: m.CapabilityAnnounce, src: int) -> None:
        """Learn what a neighbour knows about member capacities.

        Query dispatch draws members in proportion to these numbers, so an
        announce with a capacity that is not a positive finite number is
        dropped whole and counted, like any malformed frame.
        """
        if not all(0.0 < capacity < math.inf for _, capacity in announce.capabilities):
            # Lazily registered, as in ``Peer.handle_message``.
            obs.counter("overlay.rejected_messages").inc()
            return
        self.peer.learn_capabilities(announce.cluster_id, announce.capabilities)

    def elect_leaders(self, alive: set[int] | None = None) -> None:
        """Apply the election rule to each cluster's known capabilities.

        The failure detector's suspects are struck from the eligible set
        (a dead leader costs a whole adaptation round); if suspicion
        would leave nobody eligible, it is ignored — a wrong suspect list
        must never block the election entirely.
        """
        suspects = self.peer.suspects()
        for cluster_id in self.peer.memberships:
            capabilities = self.peer.known_capabilities.get(
                cluster_id, {self.peer.node_id: self.peer.capacity_units}
            )
            eligible = alive
            if suspects:
                pool = set(alive) if alive is not None else set(capabilities)
                eligible = (pool - suspects) or pool
            winner = elect_leader(capabilities, alive=eligible)
            if winner is not None:
                self.peer.believed_leader[cluster_id] = winner

    # ------------------------------------------------------------------
    # monitoring: Phase 1 of adaptation (Section 6.1.2)
    # ------------------------------------------------------------------
    def start_monitoring(self, cluster_id: int, round_id: int) -> None:
        """Leader entry point: aggregate the cluster's hit counters."""
        if cluster_id not in self.peer.memberships:
            raise ValueError(
                f"node {self.peer.node_id} is not a member of cluster {cluster_id}"
            )
        self._open_round(
            cluster_id,
            round_id,
            parent_id=self.peer.node_id,
            leader_id=self.peer.node_id,
            budget=_MONITORING_TIMEOUT,
        )

    def _open_round(
        self,
        cluster_id: int,
        round_id: int,
        parent_id: int,
        leader_id: int,
        budget: float,
    ) -> None:
        """Join a monitoring round under ``parent_id`` and fan it out.

        Neighbours other than the parent become children (suspects are
        routed around instead of timed out); each level hands its
        children 70 % of its own timeout budget, so children finalize
        before their parents give up on them.
        """
        round_key = (cluster_id, round_id)
        state = _MonitoringRound(
            round_id=round_id,
            cluster_id=cluster_id,
            parent_id=parent_id,
            pending_children=0,
            counts=dict(self._local_counts_for(cluster_id)),
            weights=dict(self._local_weights_for(cluster_id)),
        )
        self._monitoring[round_key] = state
        request = m.HitCountRequest(
            round_id=round_id,
            cluster_id=cluster_id,
            leader_id=leader_id,
            timeout_budget=budget * 0.7,
        )
        suspects = self.peer.suspects()
        for neighbor in self.peer.cluster_neighbors.get(cluster_id, ()):
            if neighbor == parent_id or neighbor in suspects:
                continue
            self.peer._send(neighbor, "hit_count_request", request)
            state.pending_children += 1
        if state.pending_children == 0:
            self._finish_monitoring(state)
            return

        def timeout() -> None:
            # Looked up, not captured: a round wiped by a power loss (or
            # restarted under the same key) must not be finished from here.
            state = self._monitoring.get(round_key)
            if state is not None and not state.finished:
                state.pending_children = 0
                self._finish_monitoring(state)

        self.peer.transport.schedule(max(budget, 0.1), timeout)

    def _local_counts_for(self, cluster_id: int) -> dict[int, int]:
        """This node's hit counters for the categories of ``cluster_id``."""
        return {
            category_id: hits
            for category_id, hits in self.peer.hit_counters.items()
            if self.peer.dcrt.cluster_of(category_id) == cluster_id
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
        for info in self.peer.docs.values():
            for category_id in info.categories:
                doc_counts[category_id] = doc_counts.get(category_id, 0) + 1
                total_docs += 1
        if total_docs == 0:
            return {}
        return {
            category_id: self.peer.capacity_units * count / total_docs
            for category_id, count in doc_counts.items()
            if self.peer.dcrt.cluster_of(category_id) == cluster_id
        }

    def handle_hit_count_request(self, request: m.HitCountRequest, src: int) -> None:
        round_key = (request.cluster_id, request.round_id)
        if round_key in self._monitoring:
            # Duplicate via another graph path: answer "already counted" so
            # the sender is not left waiting (tree loops broken here).
            self.peer._send(
                src,
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
        self._open_round(
            request.cluster_id,
            request.round_id,
            parent_id=src,
            leader_id=request.leader_id,
            budget=request.timeout_budget,
        )

    def handle_hit_count_reply(self, reply: m.HitCountReply, src: int) -> None:
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

    def monitoring_result(self, cluster_id: int, round_id: int) -> tuple:
        """``(counts, weights, subtree_size)`` of a round this peer rooted
        and finished; ``({}, {}, 0)`` for any other round."""
        state = self._monitoring.get((cluster_id, round_id))
        if state is None or not state.finished or state.parent_id != self.peer.node_id:
            return {}, {}, 0
        return state.counts, state.weights, state.subtree_size

    def _finish_monitoring(self, state: _MonitoringRound) -> None:
        state.finished = True
        if state.parent_id == self.peer.node_id:
            return  # the root keeps its aggregate: ``monitoring_result``
        self.peer._send(
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

    def handle_load_report(self, report: m.LoadReport, src: int) -> None:
        """Phase 2's multicast lands here and stops: the coordinator
        evaluates the reports it built, so the frame is charged to the
        network and read by nobody."""

    # ------------------------------------------------------------------
    # rebalancing: node side of the lazy protocol (Section 6.1.2)
    # ------------------------------------------------------------------
    def handle_reassign_notice(self, notice: m.ReassignNotice, src: int) -> None:
        known_epoch = self.peer.ownership_epochs.get(notice.category_id, 0)
        if notice.epoch or known_epoch:
            # Epoch fencing (durability armed): a notice must strictly
            # advance the category's ownership epoch.  A stale owner
            # resurfacing after a partition heal re-announces its old
            # epoch and is rejected here, whatever its move counter says.
            if notice.epoch <= known_epoch:
                return
            self.peer.ownership_epochs[notice.category_id] = notice.epoch
            self.peer._record("epoch", notice.category_id, notice.epoch)
        entry = DCRTEntry(notice.target_cluster, notice.move_counter)
        if not self.peer.dcrt.merge(notice.category_id, entry):
            return  # stale or duplicate notice
        # Source role: remember which destination partners this node must
        # split its group across (the paper divides each category's data
        # "into |Ni| pieces, one per each node" of the destination).
        my_partners = tuple(
            destination_id
            for source_id, destination_id in notice.transfer_pairs
            if source_id == self.peer.node_id
        )
        if my_partners:
            self._transfer_partners[notice.category_id] = my_partners
        for source_id, doc_ids in notice.source_docs:
            if source_id == self.peer.node_id:
                self._designated_docs[notice.category_id] = tuple(doc_ids)
        # Destination role: schedule the pull of this node's piece.
        for source_id, destination_id in notice.transfer_pairs:
            if destination_id == self.peer.node_id:
                pending = _PendingTransfer(
                    category_id=notice.category_id, source_id=source_id
                )
                self._pending_transfers[notice.category_id] = pending
                # Schedule the group transfer for an opportune moment.
                delay = float(self.peer.rng.random()) * _TRANSFER_STAGGER
                self.peer.transport.schedule(
                    delay, lambda p=pending: self._request_group(p)
                )

    def pull_documents(
        self, source_id: int, category_id: int, doc_ids: Iterable[int]
    ) -> None:
        """Pull documents of a category from a holder.

        No ``doc_ids`` asks for the group the source owes this node in a
        category move; the demand-adaptive replication manager names the
        documents it places.  Either way the source answers with
        ``transfer_data`` sized as the documents' content, so a replica
        pays real transfer bytes — and the arriving copies register in
        the holder directory via ``store_document``.
        """
        self.peer._send(
            source_id,
            "transfer_request",
            m.TransferRequest(
                category_id=category_id,
                requester_id=self.peer.node_id,
                doc_ids=tuple(doc_ids),
            ),
        )

    def park(self, query: m.QueryMessage) -> bool:
        """Hold ``query`` until the in-flight transfer of its category lands.

        The destination of a category move may be asked before the
        content arrives: the query waits and the owed group (or the one
        wanted document) is pulled from the coupled source now (lazy
        step 4).  False when no transfer is pending for the category.
        """
        pending = self._pending_transfers.get(query.category_id)
        if pending is None:
            return False
        pending.waiting_queries.append(query)
        if query.target_doc_id >= 0:
            # Pull-on-demand for a specific document can run even while the
            # bulk group transfer is pending or already requested.
            self.pull_documents(
                pending.source_id, pending.category_id, (query.target_doc_id,)
            )
        else:
            self._request_group(pending)
        return True

    def _request_group(self, pending: _PendingTransfer) -> None:
        """Pull the owed document group from the paired source, once."""
        if not pending.requested:
            pending.requested = True
            self.pull_documents(pending.source_id, pending.category_id, ())

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
            held = sorted(d for d in designated if self.peer.dt.has_document(d))
        else:
            held = sorted(self.peer.dt.docs_in_category(category_id))
        partners = self._transfer_partners.get(category_id, ())
        if partner_id not in partners:
            return held
        index = partners.index(partner_id)
        return held[index :: len(partners)]

    def handle_transfer_request(self, request: m.TransferRequest, src: int) -> None:
        if request.doc_ids:
            doc_ids = request.doc_ids  # urgent pull of specific documents
        else:
            doc_ids = tuple(
                self._group_for_partner(request.category_id, request.requester_id)
            )
        infos = [self.peer.docs[d] for d in doc_ids if d in self.peer.docs]
        total = sum(info.size_bytes for info in infos)
        self.peer._send(
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

    def handle_transfer_data(self, data: m.TransferData, src: int) -> None:
        per_doc = data.total_bytes // max(1, len(data.doc_ids))
        for doc_id in data.doc_ids:
            self.peer.store_document(
                DocInfo(
                    doc_id=doc_id,
                    categories=(data.category_id,),
                    size_bytes=per_doc,
                )
            )
        pending = self._pending_transfers.get(data.category_id)
        if pending is not None:
            entry = self.peer.dcrt.entry(data.category_id)
            waiting, pending.waiting_queries = pending.waiting_queries, []
            if pending.requested:
                # The bulk group has arrived; future queries go through the
                # normal path (and may still pull individual docs urgently).
                self._pending_transfers.pop(data.category_id, None)
            for query in waiting:
                self.peer.queries.replay(query, entry)
