"""Graceful shutdown (``P2PSystem.shutdown_node``): drain, hand off
sole-held documents, then leave."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.peer import Peer
    from repro.overlay.system import P2PSystem

__all__ = ["graceful_shutdown", "handoff_target", "sole_holder_docs"]

#: hand-off attempts before a shutdown with unplaced last copies aborts.
HANDOFF_ROUNDS = 3


def graceful_shutdown(system: "P2PSystem", node_id: int) -> bool:
    """Gracefully shut a node down: drain, hand off, then leave.

    Distinct from ``crash_node`` (no goodbye) and from ``leave_node``
    (goodbye, but any sole-holder content departs with the leaver): a
    graceful shutdown first lets in-flight work drain, then hands off
    every document whose *only* live copy sits on the leaver — the
    receiving node pulls the document group over the transfer protocol,
    and the ``document_handoff`` event lets the content data plane ship
    the document's manifest alongside.  Hand-off is retried up to
    :data:`HANDOFF_ROUNDS` times (messages may be lost); if some sole-holder
    document still cannot be placed — the cluster is partitioned away,
    or nobody else is alive — the shutdown is *aborted* and the node
    stays up, because leaving would destroy the last copy.  Returns
    whether the node left.
    """
    peer = system.peer(node_id)
    if peer is None or not system.network.is_alive(node_id):
        return False
    # Drain: let in-flight queries, transfers, and the node's own service
    # queue finish before deciding what must move.
    system.sim.run()
    for _ in range(HANDOFF_ROUNDS):
        if not system.is_live(node_id):
            # Crash-during-handoff: the leaver died mid-drain.  Abort —
            # the crash path owns the node now, and a graceful leave here
            # would count partially shipped manifests as placed copies and
            # destroy last copies whose transfers never completed.
            return False
        orphans = sole_holder_docs(system, node_id)
        if not orphans:
            break
        for doc_id in orphans:
            target = handoff_target(system, doc_id, node_id)
            if target is None:
                continue
            info = peer.docs[doc_id]
            category_id = info.categories[0] if info.categories else 0
            target.adaptation.pull_documents(node_id, category_id, [doc_id])
            system.emit("document_handoff", peer, target.node_id, doc_id)
        system.sim.run()
    if not system.is_live(node_id):
        return False  # crashed while the final drain ran
    if sole_holder_docs(system, node_id):
        return False  # last copies could not be placed; stay up
    system.leave_node(node_id)
    return True


def sole_holder_docs(system: "P2PSystem", node_id: int) -> list[int]:
    """Documents whose only live holder is ``node_id``."""
    alive_among, holders = system.network.alive_among, system.ledger.holders
    alone = {node_id}
    return [
        doc_id
        for doc_id in sorted(system.peers[node_id].docs)
        if alive_among(holders(doc_id)) <= alone
    ]


def handoff_target(
    system: "P2PSystem", doc_id: int, leaver_id: int
) -> "Peer | None":
    """Deterministic destination for a sole-holder document.

    Prefer live members of the document's home cluster, highest
    capacity first (node id as the tie break); fall back to any live
    peer when the cluster has nobody else.
    """
    info = system.peers[leaver_id].docs.get(doc_id)
    candidates: list["Peer"] = []
    if info is not None and info.categories:
        cluster_id = int(system.assignment.category_to_cluster[info.categories[0]])
        candidates = [
            peer
            for peer in system.peers_in_cluster(cluster_id)
            if peer.node_id != leaver_id
        ]
    if not candidates:
        candidates = [
            peer for peer in system.alive_peers() if peer.node_id != leaver_id
        ]
    return min(
        candidates, key=lambda p: (-p.capacity_units, p.node_id), default=None
    )
