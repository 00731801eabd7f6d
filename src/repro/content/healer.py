"""Anti-entropy healing: re-replicate under-replicated documents.

One healing round scans every registered manifest, finds documents
whose live full-holder count fell below ``ContentConfig.
replication_floor`` (churn, crashes), and starts verified multi-source
fetches at deterministic targets to bring the count back up, at most
:data:`HEAL_FETCH_LIMIT` a round.  Targets
prefer live members of the document's home cluster (highest capacity
first, node id as the tie break), falling back to any live peer when
the cluster itself was hollowed out.

Round-driven, like gossip and the replication manager: the healer
never self-schedules, so run-to-quiescence callers still drain.  Call
:meth:`~repro.overlay.system.P2PSystem.run_healing_round` to run one
round and settle the fetches it started.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.content.manifest import ContentManager

__all__ = ["ContentHealer"]

#: cap on re-replication fetches one healing round may start, so a single
#: round stays bounded after mass churn.
HEAL_FETCH_LIMIT = 16


class ContentHealer:
    """Periodic (round-driven) under-replication repair."""

    def __init__(self, manager: "ContentManager") -> None:
        self.manager = manager
        self.rounds_run = 0

    def run_round(self) -> dict:
        """Scan all manifests once; start repair fetches for the gaps.

        Returns a summary: documents scanned, documents found below the
        floor, repair fetches started, and documents that are currently
        unrepairable (no live holder at all — nothing to copy from).
        """
        manager = self.manager
        holders = manager.system.ledger.holders
        alive_among = manager.system.network.alive_among
        floor = manager.config.replication_floor
        budget = HEAL_FETCH_LIMIT
        scanned = below_floor = started = unrepairable = 0
        for doc_id in sorted(manager.manifests):
            scanned += 1
            # A full scan at two set operations a document; no second
            # "at-risk" book to keep in step with stores, drops, crashes
            # and recoveries.
            live = len(alive_among(holders(doc_id)))
            if not live:
                unrepairable += 1
                continue
            if live >= floor:
                continue
            below_floor += 1
            if budget <= 0:
                continue
            for target in self._targets(doc_id, floor - live):
                if budget <= 0:
                    break
                if manager.fetch(target, doc_id, purpose="heal") is not None:
                    started += 1
                    budget -= 1
        self.rounds_run += 1
        return {
            "scanned": scanned,
            "below_floor": below_floor,
            "fetches": started,
            "unrepairable": unrepairable,
        }

    def _targets(self, doc_id: int, need: int) -> list[int]:
        """Deterministic re-replication destinations for the ``need``
        copies one document is short of the floor."""
        manager = self.manager
        system = manager.system
        info = manager.doc_info(doc_id)
        candidates: list = []
        if info is not None and info.categories:
            cluster_id = int(
                system.assignment.category_to_cluster[info.categories[0]]
            )
            candidates = [
                peer
                for peer in system.peers_in_cluster(cluster_id)
                if doc_id not in peer.docs
            ]
        if len(candidates) < need:
            in_cluster = {peer.node_id for peer in candidates}
            candidates += [
                peer
                for peer in system.alive_peers()
                if doc_id not in peer.docs and peer.node_id not in in_cluster
            ]
        candidates.sort(key=lambda p: (-p.capacity_units, p.node_id))
        return [peer.node_id for peer in candidates[:need]]
