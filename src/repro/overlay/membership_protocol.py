"""Membership: publish, join/leave and metadata gossip (Sections 6.2-6.3).

The :class:`MembershipProtocol` component of a
:class:`~repro.overlay.peer.Peer`:

* the publish protocol of Section 6.2 (with the cluster-0 default for
  previously empty categories and moved-category retries);
* the join/leave protocol of Section 6.3 (including free-rider dummy
  publishes and leave notices);
* anti-entropy gossip of DCRT entries (lazy-rebalancing step 5).

All of its state is volatile: a power loss rebuilds the component.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import obs
from repro.overlay import messages as m
from repro.overlay.messages import DocInfo
from repro.overlay.metadata import DCRT, DCRTEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.peer import Peer

__all__ = ["MembershipProtocol"]

_TRACE = obs.TRACE
_C_GOSSIP_SENT = obs.counter("overlay.gossip_messages")
#: number of known cluster members a publish announcement reaches.
_PUBLISH_FANOUT = 8
#: retries when a publish reply redirects to a moved category's cluster.
_MAX_PUBLISH_RETRIES = 8


class MembershipProtocol:
    """Publish, join/leave and DCRT gossip of one peer."""

    __slots__ = ("peer", "_publish_retries", "_stale_gossip_digest")

    def __init__(self, peer: "Peer") -> None:
        self.peer = peer
        self._publish_retries: dict[tuple[int, int], int] = {}
        #: the digest every gossip push replays (a ``stale_gossip`` peer
        #: of :mod:`repro.overlay.misbehavior`); None = honest.
        self._stale_gossip_digest: tuple | None = None

    @classmethod
    def registrations(cls) -> dict:
        """The kinds this class owns: ``kind -> (payload class, handler)``."""
        return {
            "publish_request": (m.PublishRequest, cls.handle_publish_request),
            "publish_reply": (m.PublishReply, cls.handle_publish_reply),
            "join_request": (m.JoinRequest, cls.handle_join_request),
            "join_reply": (m.JoinReply, cls.handle_join_reply),
            "leave_notice": (m.LeaveNotice, cls.handle_leave_notice),
            "gossip": (m.GossipDigest, cls.handle_gossip),
            "gossip_reply": (m.GossipDigest, cls.handle_gossip_reply),
        }

    def freeze_gossip_digest(self, frozen: bool = True) -> None:
        """Capture the DCRT now for every gossip push to replay (or, with
        ``frozen=False``, end the replay); the DCRT itself keeps merging."""
        self._stale_gossip_digest = (
            tuple(self.peer.dcrt.snapshot().items()) if frozen else None
        )

    # ------------------------------------------------------------------
    # publish (Section 6.2)
    # ------------------------------------------------------------------
    def publish_document(self, info: DocInfo) -> None:
        """Publish a new local document, one announcement per new category."""
        already_published = {
            category_id
            for category_id in info.categories
            if self.peer.dt.has_category(category_id)
        }
        self.peer.store_document(info)
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
                for doc_id in self.peer.dt.doc_ids()
                for category_id in self.peer.dt.categories_of(doc_id)
            }
        )
        for category_id in categories:
            self._announce_publish(doc_id=-1, category_id=category_id)

    def dummy_publish(self) -> None:
        """A free-rider's empty publish: join cluster 0 to receive updates."""
        self._announce_publish(doc_id=-1, category_id=-1)

    def _announce_publish(self, doc_id: int, category_id: int) -> None:
        cluster_id = (
            self.peer.dcrt.cluster_of(category_id)
            if category_id >= 0
            else DCRT.DEFAULT_CLUSTER
        )
        known = self.peer.nrt.nodes_in(cluster_id)
        targets = [n for n in known if n != self.peer.node_id][:_PUBLISH_FANOUT]
        if not targets:
            # Nobody known in the target cluster: adopt membership locally;
            # gossip will spread our presence.
            self.peer.join_cluster(cluster_id)
            return
        request = m.PublishRequest(
            publisher_id=self.peer.node_id,
            doc_id=doc_id,
            category_id=category_id,
            believed_entry=self.peer.dcrt.entry(category_id)
            if category_id >= 0
            else DCRTEntry(DCRT.DEFAULT_CLUSTER, 0),
        )
        for target in targets:
            self.peer._send(target, "publish_request", request)

    def handle_publish_request(self, request: m.PublishRequest, src: int) -> None:
        category_id = request.category_id
        entry = (
            self.peer.dcrt.entry(category_id)
            if category_id >= 0
            else DCRTEntry(DCRT.DEFAULT_CLUSTER, 0)
        )
        accepted = entry.cluster_id in self.peer.memberships
        updates: tuple[tuple[int, DCRTEntry], ...] = ()
        believed = request.believed_entry
        if category_id >= 0 and entry.move_counter > believed.move_counter:
            updates = ((category_id, entry),)
        members: tuple[int, ...] = ()
        if accepted:
            members = tuple(self.peer.nrt.nodes_in(entry.cluster_id))
            # step 5: receivers in the serving cluster record the new node.
            self.peer.nrt.add(entry.cluster_id, request.publisher_id)
        self.peer._send(
            request.publisher_id,
            "publish_reply",
            m.PublishReply(
                category_id=category_id,
                accepted=accepted,
                responder_id=self.peer.node_id,
                dcrt_updates=updates,
                cluster_members=members,
            ),
        )

    def handle_publish_reply(self, reply: m.PublishReply, src: int) -> None:
        changed = False
        for category_id, entry in reply.dcrt_updates:
            changed = self.peer.dcrt.merge(category_id, entry) or changed
        if reply.accepted:
            cluster_id = (
                self.peer.dcrt.cluster_of(reply.category_id)
                if reply.category_id >= 0
                else DCRT.DEFAULT_CLUSTER
            )
            self.peer.join_cluster(cluster_id, known_members=reply.cluster_members)
            self._publish_retries.pop((reply.category_id, cluster_id), None)
            return
        if changed and reply.category_id >= 0:
            # The category moved since our announcement: chase it
            # (Section 6.2 step 5's "repeat until the correct cluster").
            key = (reply.category_id, self.peer.dcrt.cluster_of(reply.category_id))
            retries = self._publish_retries.get(key, 0)
            if retries < _MAX_PUBLISH_RETRIES:
                self._publish_retries[key] = retries + 1
                self._announce_publish(doc_id=-1, category_id=reply.category_id)

    # ------------------------------------------------------------------
    # join / leave (Section 6.3)
    # ------------------------------------------------------------------
    def start_join(self, bootstrap_id: int) -> None:
        """Contact an existing node and retrieve its metadata (step 2)."""
        self.peer._send(
            bootstrap_id, "join_request", m.JoinRequest(joiner_id=self.peer.node_id)
        )

    def handle_join_request(self, request: m.JoinRequest, src: int) -> None:
        nrt_snapshot = tuple(
            (cluster_id, tuple(self.peer.nrt.nodes_in(cluster_id)))
            for cluster_id in self.peer.nrt.clusters()
        )
        self.peer._send(
            request.joiner_id,
            "join_reply",
            m.JoinReply(
                responder_id=self.peer.node_id,
                dcrt_snapshot=tuple(self.peer.dcrt.snapshot().items()),
                nrt_snapshot=nrt_snapshot,
            ),
            size=4 * m.CONTROL_SIZE,
        )

    def merge_join_reply(self, reply: m.JoinReply) -> None:
        """Adopt the bootstrap node's DCRT and NRT snapshots."""
        self.peer.dcrt.merge_snapshot(dict(reply.dcrt_snapshot))
        for cluster_id, members in reply.nrt_snapshot:
            self.peer.nrt.add_many(cluster_id, members)

    def handle_join_reply(self, reply: m.JoinReply, src: int) -> None:
        self.merge_join_reply(reply)
        if self.peer.docs:
            self.announce_contributions()
        else:
            self.dummy_publish()

    def start_leave(self) -> None:
        """Announce departure to every cluster this node belongs to."""
        for cluster_id in sorted(self.peer.memberships):
            notice = m.LeaveNotice(
                leaver_id=self.peer.node_id,
                cluster_id=cluster_id,
                doc_ids=tuple(sorted(self.peer.docs)),
            )
            for neighbor in self.peer.cluster_neighbors.get(cluster_id, ()):
                self.peer._send(neighbor, "leave_notice", notice)
        self.peer.transport.unregister(self.peer.node_id)

    def handle_leave_notice(self, notice: m.LeaveNotice, src: int) -> None:
        self.peer.nrt.remove_node(notice.leaver_id)
        for neighbors in self.peer.cluster_neighbors.values():
            neighbors.discard(notice.leaver_id)
        for cluster_id, capabilities in self.peer.known_capabilities.items():
            if notice.leaver_id in capabilities:
                del self.peer.own_capabilities(cluster_id)[notice.leaver_id]
        # A clean departure is not a failure: drop any heartbeat
        # suspicion evidence about the leaver so it does not linger in
        # the suspect map (the crash/leave asymmetry — recover_node
        # clears crash-era state, but nothing cleared leave-era state).
        self.peer.detector.forget(notice.leaver_id)
        self.peer.hooks.on_leave_notice(self.peer, notice)

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
        for neighbors in self.peer.cluster_neighbors.values():
            partners.extend(neighbors)
        if not partners:
            for cluster_id in self.peer.nrt.clusters():
                partners.extend(
                    node_id
                    for node_id in self.peer.nrt.nodes_in(cluster_id)
                    if node_id != self.peer.node_id
                )
        if not partners:
            return
        partner = partners[int(self.peer.rng.integers(0, len(partners)))]
        _C_GOSSIP_SENT.value += 1
        if _TRACE.enabled:
            _TRACE.emit(
                "gossip",
                t=self.peer.transport.now,
                node=self.peer.node_id,
                partner=partner,
            )
        # A frozen digest is replayed: the push half of push-pull spreads
        # nothing new, but receivers ignore stale entries by move-counter
        # and this peer still merges incoming corrections — so the blast
        # radius is wasted bytes, not divergence (asserted by the
        # gossip-convergence invariant).
        entries = self._stale_gossip_digest
        if entries is None:
            entries = tuple(self.peer.dcrt.snapshot().items())
        self.peer._send(
            partner,
            "gossip",
            m.GossipDigest(sender_id=self.peer.node_id, entries=entries),
            size=2 * m.CONTROL_SIZE,
        )

    def handle_gossip(self, digest: m.GossipDigest, src: int) -> None:
        newer_here: list[tuple[int, DCRTEntry]] = []
        for category_id, entry in digest.entries:
            local = self.peer.dcrt.entry(category_id)
            if local.move_counter > entry.move_counter:
                newer_here.append((category_id, local))
            else:
                self.peer.dcrt.merge(category_id, entry)
        if newer_here:
            # Push-pull: send back what the partner is missing.
            self.peer._send(
                digest.sender_id,
                "gossip_reply",
                m.GossipDigest(sender_id=self.peer.node_id, entries=tuple(newer_here)),
            )

    def handle_gossip_reply(self, digest: m.GossipDigest, src: int) -> None:
        for category_id, entry in digest.entries:
            self.peer.dcrt.merge(category_id, entry)
