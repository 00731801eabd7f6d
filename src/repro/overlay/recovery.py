"""Durable crash recovery, deployment side: the subsystem a
:class:`~repro.overlay.system.P2PSystem` builds when durability is on.
It hands every peer its journal, keeps the ownership-epoch ledger,
replays a journal into a peer that lost its memory, and runs the
``reconciliation`` control round.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.durability import (
    DurabilityConfig,
    MemoryStore,
    PeerJournal,
    StoreBodies,
)
from repro.overlay import messages as m

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.peer import Peer
    from repro.overlay.system import P2PSystem

__all__ = ["RecoveryCoordinator"]


class RecoveryCoordinator:
    """Journals, ownership epochs and reconciliation for one world."""

    round_name = "reconciliation"

    def __init__(self, system: "P2PSystem", config: DurabilityConfig) -> None:
        self.system = system
        self.config = config
        self._journals: dict[int, PeerJournal] = {}
        #: the world's encoded ``store`` bodies, shared by its journals.
        self.bodies = StoreBodies()
        #: the world's view of per-category ownership epochs, and the
        #: append-only ledger of (category, epoch, cluster) claims the
        #: single-owner-per-epoch invariant audits.
        self._category_epochs: dict[int, int] = {}
        self._epoch_claims: list[tuple[int, int, int]] = []
        # Built after bootstrap, so the baseline snapshots cover the
        # placed documents and the full DCRT.
        for _node_id, peer in sorted(system.peers.items()):
            self.peer_created(peer)

    # ------------------------------------------------------------------
    # journals
    # ------------------------------------------------------------------
    def peer_created(self, peer: "Peer") -> None:
        """Give ``peer`` its durability journal (reusing a prior one).

        Reuse matters for re-admitted node ids: ``attach_journal``
        compacts a fresh baseline immediately, so a stale journal left
        by a departed incarnation is overwritten, never replayed.
        """
        journal = self._journals.get(peer.node_id)
        if journal is None:
            journal = PeerJournal(MemoryStore(), self.config, self.bodies)
            self._journals[peer.node_id] = journal
        peer.attach_journal(journal)

    def durable_docs_by_node(self) -> dict[int, set[int]]:
        """Doc ids each node's journal acknowledges as held.

        Crashed nodes included: their disks survive, which is what the
        conservation and no-acknowledged-write-loss checks need.  Each
        set is a copy the caller may keep.
        """
        return {
            node_id: set(journal.durable_doc_ids())
            for node_id, journal in sorted(self._journals.items())
        }

    def peer_recovered(self, peer: "Peer") -> None:
        """Replay the journal into a peer that lost its memory.

        Snapshot + longest-valid-WAL-prefix, then re-learn topology; the
        content subsystem re-verifies the replayed holdings afterwards,
        before anything is re-advertised.
        """
        peer.restore_durable_state(self._journals[peer.node_id].load())
        self.system.topology.rewire(peer)

    # ------------------------------------------------------------------
    # ownership epochs
    # ------------------------------------------------------------------
    def epoch_claims(self) -> list[tuple[int, int, int]]:
        """Append-only ledger of (category, epoch, cluster) ownership claims."""
        return list(self._epoch_claims)

    def next_ownership_epoch(self, category_id: int) -> int:
        """The next safe ownership epoch for a category.

        Strictly above the recorded epoch *and* every peer's adopted
        epoch (including crashed peers — their journals replay on
        recovery), so a claim at this epoch fences all earlier owners.
        """
        best = self._category_epochs.get(category_id, 0)
        for peer in self.system.peers.values():
            known = peer.ownership_epochs.get(category_id, 0)
            if known > best:
                best = known
        return best + 1

    def claim(self, category_id: int, epoch: int, cluster_id: int) -> None:
        """Record that ``cluster_id`` owns the category from ``epoch`` on."""
        if epoch > self._category_epochs.get(category_id, 0):
            self._category_epochs[category_id] = epoch
        self._epoch_claims.append((category_id, epoch, cluster_id))

    # ------------------------------------------------------------------
    # the control round
    # ------------------------------------------------------------------
    def run_round(self) -> dict:
        """One anti-entropy ownership reconciliation pass.

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
        replicas.  The caller drains the simulation afterwards.
        """
        system = self.system
        assignment = system.assignment
        alive = system.alive_peers()
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
            target = int(assignment.category_to_cluster[category_id])
            epoch = self.next_ownership_epoch(category_id)
            counter = int(assignment.move_counters[category_id])
            for peer in alive:
                known = peer.dcrt.entry(category_id).move_counter
                if known > counter:
                    counter = known
            counter += 1
            # Jump the authoritative counter above every stale belief so
            # later legitimate moves (assignment counter + 1) still win.
            assignment.move_counters[category_id] = counter
            notice = m.ReassignNotice(
                category_id=category_id,
                source_cluster=target,
                target_cluster=target,
                move_counter=counter,
                epoch=epoch,
            )
            assignment.move(category_id, target)
            self.claim(category_id, epoch, target)
            # Deterministic sender: the lowest-id live member of the
            # winning cluster, falling back to any live peer.
            senders = system.peers_in_cluster(target) or alive
            sender = min(senders, key=lambda p: p.node_id)
            for peer in alive:
                sender._send(peer.node_id, "reassign_notice", notice)
        return {"divergent": len(divergent), "categories": divergent}
