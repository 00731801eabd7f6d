"""The deployment-side record of Section 3.1's clusters: who is a member
of which cluster, how a cluster's members are linked (the graph queries
and the Phase-1 monitoring rounds fan out over), and — in super-peer mode —
which member keeps the cluster metadata.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as np

from repro.overlay.cluster import ClusterGraph, build_cluster_graph
from repro.overlay.metadata import CapabilityTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.maxfair import Assignment
    from repro.model.system import SystemInstance
    from repro.overlay import messages as m
    from repro.overlay.peer import Peer
    from repro.overlay.system import P2PSystemConfig

__all__ = ["ClusterTopology"]

#: neighbours per node in each cluster's connected random graph.
_CLUSTER_GRAPH_DEGREE = 4


class ClusterTopology:
    """Authoritative membership sets, cluster graphs and super peers.

    ``peers`` is the world's live ``node id -> Peer`` map (every peer ever
    created); ``rng`` is the world's ``topology`` stream.
    """

    def __init__(
        self, peers: Mapping[int, "Peer"], n_clusters: int, rng: np.random.Generator
    ) -> None:
        self._peers = peers
        self._rng = rng
        self.members: dict[int, set[int]] = {
            cluster_id: set() for cluster_id in range(n_clusters)
        }
        self.graphs: dict[int, ClusterGraph] = {}
        #: cluster id -> designated super peer (super-peer mode only).
        self.super_peers: dict[int, int] = {}
        #: cluster id -> the shared capability table bootstrap handed out.
        self.capabilities: dict[int, CapabilityTable] = {}
        self._members_view: dict[int, set[int]] | None = None
        #: what :meth:`bootstrap` drew NRTs by; :meth:`rewire` redraws by it.
        self._config: "P2PSystemConfig | None" = None

    def bootstrap(
        self,
        instance: "SystemInstance",
        assignment: "Assignment",
        config: "P2PSystemConfig",
    ) -> None:
        """Wire the freshly created peers into their clusters.

        Membership follows the assignment (contributors of a cluster's
        categories are its members, Section 3.1); NRTs are complete for
        own clusters and sampled for foreign ones, and every peer holds
        every cluster's capability table, so that it can weigh the members
        it dispatches to.
        """
        peers, rng = self._peers, self._rng
        self._config = config
        for node_id, cats in instance.node_categories.items():
            for category_id in cats:
                cluster_id = int(assignment.category_to_cluster[category_id])
                self.members[cluster_id].add(node_id)

        all_nodes = sorted(peers)
        for cluster_id, members in self.members.items():
            member_list = sorted(members)
            # An object array hands back the ids themselves, so every table
            # of the cluster shares one ``int`` per member.
            members_array = np.array(member_list, dtype=object)
            # The capability table is advertised state, equal at every
            # peer: one shared read-only table, private only once a peer
            # learns something else (``Peer.own_capabilities``).
            capabilities = CapabilityTable(
                {member: instance.nodes[member].capacity_units for member in member_list}
            )
            capabilities.shared = True
            for node_id in member_list:
                peer = peers[node_id]
                peer.known_capabilities[cluster_id] = capabilities
                # Each member knows a *different* random subset (up to the
                # NRT capacity) — handing everyone the same ordered list
                # would make the LRU evict the same members at every node
                # and starve them of traffic.
                order = rng.permutation(len(member_list))
                known = members_array[order[: peer.nrt.max_nodes_per_cluster]]
                peer.join_cluster(cluster_id, known_members=known.tolist())
            # Foreign-cluster samples for everyone else.
            if member_list:
                self.capabilities[cluster_id] = capabilities
                sample_size = min(config.remote_nrt_sample, len(member_list))
                for node_id in all_nodes:
                    if node_id in members:
                        continue
                    picks = rng.choice(
                        len(member_list), size=sample_size, replace=False
                    )
                    peer = peers[node_id]
                    peer.nrt.add_many(cluster_id, members_array[picks].tolist())
                    peer.known_capabilities[cluster_id] = capabilities

        for cluster_id, members in self.members.items():
            if not members:
                continue
            graph = build_cluster_graph(
                cluster_id, sorted(members), rng, degree=_CLUSTER_GRAPH_DEGREE
            )
            self.graphs[cluster_id] = graph
            for node_id in members:
                peers[node_id].set_cluster_neighbors(
                    cluster_id, graph.neighbors(node_id)
                )

        if config.metadata_mode == "super_peer":
            # Each cluster's most capable member keeps the metadata, and
            # everyone is told where it lives.
            for cluster_id, members in self.members.items():
                if not members:
                    continue
                super_peer = max(
                    members,
                    key=lambda n: (instance.nodes[n].capacity_units, n),
                )
                self.super_peers[cluster_id] = super_peer
                for peer in peers.values():
                    peer.super_peers[cluster_id] = super_peer

    def members_view(self) -> dict[int, set[int]]:
        """Snapshot of the membership sets, cached until they change.

        Treat the returned dict and sets as read-only.
        """
        if self._members_view is None:
            self._members_view = {
                cluster_id: set(members)
                for cluster_id, members in sorted(self.members.items())
            }
        return self._members_view

    def admit(self, peer: "Peer", cluster_id: int) -> None:
        """``peer`` became a member of ``cluster_id`` (publish or join)."""
        members = self.members.setdefault(cluster_id, set())
        if peer.node_id in members:
            return
        members.add(peer.node_id)
        self._members_view = None
        graph = self.graphs.get(cluster_id)
        if graph is None:
            graph = build_cluster_graph(cluster_id, [peer.node_id], self._rng)
            self.graphs[cluster_id] = graph
        else:
            existing = sorted(graph.members)
            attach_count = min(_CLUSTER_GRAPH_DEGREE, len(existing))
            attach = [
                existing[int(i)]
                for i in self._rng.choice(
                    len(existing), size=attach_count, replace=False
                )
            ] if existing else []
            graph.add_member(peer.node_id, attach)
            for other in attach:
                other_peer = self._peers.get(other)
                if other_peer is not None:
                    other_peer.cluster_neighbors.setdefault(cluster_id, set()).add(
                        peer.node_id
                    )
        peer.set_cluster_neighbors(cluster_id, graph.neighbors(peer.node_id))

    def note_departure(self, notice: "m.LeaveNotice") -> None:
        """A fellow's leave notice for one cluster arrived somewhere."""
        members = self.members.get(notice.cluster_id)
        if members is not None:
            members.discard(notice.leaver_id)
            self._members_view = None
        graph = self.graphs.get(notice.cluster_id)
        if graph is not None:
            graph.remove_member(notice.leaver_id)

    def remove(self, node_id: int) -> None:
        """``node_id`` left gracefully: drop it from every cluster."""
        self._members_view = None
        for members in self.members.values():
            members.discard(node_id)
        for graph in self.graphs.values():
            graph.remove_member(node_id)

    def rewire(self, peer: "Peer") -> None:
        """Re-learn topology for a peer whose memory was just replayed.

        Its NRT is redrawn from the topology stream the way
        :meth:`bootstrap` drew it: a random subset (up to the NRT capacity)
        of every own cluster, a ``remote_nrt_sample`` of every other
        non-empty one, with that cluster's bootstrap capability table.  The
        cluster graphs never dropped the node (a crash keeps membership), so
        its neighbour links are all still there — only the peer's own copy
        of them was wiped.
        """
        config, rng = self._config, self._rng
        for cluster_id in sorted(self.members.keys() | peer.memberships):
            members_array = np.array(
                sorted(self.members.get(cluster_id, ())), dtype=object
            )
            size = len(members_array)
            if cluster_id in peer.memberships:
                order = rng.permutation(size)
                known = members_array[order[: peer.nrt.max_nodes_per_cluster]]
                peer.join_cluster(cluster_id, known_members=known.tolist())
                graph = self.graphs.get(cluster_id)
                if graph is not None and peer.node_id in graph.members:
                    peer.set_cluster_neighbors(
                        cluster_id, graph.neighbors(peer.node_id)
                    )
            elif size:
                picks = rng.choice(
                    size, size=min(config.remote_nrt_sample, size), replace=False
                )
                peer.nrt.add_many(cluster_id, members_array[picks].tolist())
                capabilities = self.capabilities.get(cluster_id)
                if capabilities is not None:
                    peer.known_capabilities.setdefault(cluster_id, capabilities)
