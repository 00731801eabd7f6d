"""Hand-wired micro-overlays for protocol unit tests.

These build a handful of peers with explicit memberships, neighbour sets,
and stored documents — no SystemInstance machinery — so each protocol
behaviour can be pinned in isolation.
"""

from __future__ import annotations

import numpy as np

from repro.overlay.peer import DocInfo, Peer, PeerConfig, PeerHooks
from repro.sim.engine import Simulator
from repro.sim.network import Network


def row(rows, **fields):
    """The one row of an experiment's ``rows`` whose fields equal ``fields``."""
    (found,) = [r for r in rows if all(getattr(r, k) == v for k, v in fields.items())]
    return found


def patch_method(monkeypatch, obj, name: str, replacement) -> None:
    """Make ``obj.name(...)`` call ``replacement(...)`` for one test.

    Peers and their components are slotted and take no instance
    attribute, so the class's method is wrapped instead; every other
    instance keeps the original.
    """
    cls = type(obj)
    original = getattr(cls, name)

    def method(self, *args, **kwargs):
        if self is obj:
            return replacement(*args, **kwargs)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, method)


class RecordingHooks(PeerHooks):
    """Hooks that record every callback and serve a holder directory."""

    def __init__(self) -> None:
        self.responses = []
        self.failures = []
        self.joined = []
        self.leaves = []
        self.holders: dict[int, set[int]] = {}

    def on_query_response(self, peer, response):
        self.responses.append((peer.node_id, response))

    def on_query_failed(self, peer, query_id, reason):
        self.failures.append((peer.node_id, query_id, reason))

    def on_cluster_joined(self, peer, cluster_id):
        self.joined.append((peer.node_id, cluster_id))

    def on_leave_notice(self, peer, notice):
        self.leaves.append((peer.node_id, notice))

    def on_document_stored(self, peer, doc_id):
        self.holders.setdefault(doc_id, set()).add(peer.node_id)

    def on_document_dropped(self, peer, doc_id):
        self.holders.get(doc_id, set()).discard(peer.node_id)

    def lookup_holders(self, peer, cluster_id, doc_id):
        return tuple(sorted(self.holders.get(doc_id, ())))


class MicroOverlay:
    """A tiny overlay with explicit wiring."""

    def __init__(self, seed: int = 0) -> None:
        self.sim = Simulator()
        self.network = Network(self.sim)
        self.rng = np.random.default_rng(seed)
        self.hooks = RecordingHooks()
        self.peers: dict[int, Peer] = {}

    def add_peer(
        self, node_id: int, capacity: float = 1.0, config: PeerConfig | None = None
    ) -> Peer:
        peer = Peer(
            node_id=node_id,
            capacity_units=capacity,
            transport=self.network,
            rng=self.rng,
            hooks=self.hooks,
            config=config or PeerConfig(),
        )
        self.peers[node_id] = peer
        return peer

    def wire_cluster(
        self, cluster_id: int, member_ids, edges, category_map=None
    ) -> None:
        """Make ``member_ids`` a cluster with the given neighbour edges.

        ``category_map``: category id -> cluster id entries installed in
        every member's DCRT (defaults to nothing).
        """
        member_ids = list(member_ids)
        for node_id in member_ids:
            peer = self.peers[node_id]
            peer.join_cluster(cluster_id, known_members=member_ids)
        for a, b in edges:
            self.peers[a].cluster_neighbors.setdefault(cluster_id, set()).add(b)
            self.peers[b].cluster_neighbors.setdefault(cluster_id, set()).add(a)
        if category_map:
            for node_id in self.peers:
                for category_id, cluster in category_map.items():
                    self.peers[node_id].dcrt.set(category_id, cluster)

    def give_document(
        self, node_id: int, doc_id: int, categories, size: int = 1000
    ) -> None:
        self.peers[node_id].store_document(
            DocInfo(doc_id=doc_id, categories=tuple(categories), size_bytes=size)
        )

    def run(self) -> None:
        self.sim.run()


# ----------------------------------------------------------------------
# canonical full-system worlds
# ----------------------------------------------------------------------
#
# Most overlay integration tests want the same thing: a scaled Zipf
# scenario, a MaxFair assignment, a replication plan, and optionally a
# live P2PSystem on top.  These builders delegate to the repro.api
# facade (whose ``build_world`` is ``repro.core.build_world``, the single
# source of that pipeline) and keep the tuple-returning signatures and
# the seed-31 default the test modules use.

from repro import api  # noqa: E402


def build_world(
    scale: float = 0.02,
    seed: int = 31,
    *,
    n_reps: int = 2,
    hot_mass: float = 0.35,
):
    """``(instance, assignment, plan)`` for a scaled Zipf scenario."""
    return api.build_world(scale=scale, seed=seed, n_reps=n_reps, hot_mass=hot_mass)


def build_live_system(
    scale: float = 0.02,
    seed: int = 31,
    *,
    config=None,
    with_plan: bool = True,
    n_reps: int = 2,
    hot_mass: float = 0.35,
):
    """``(instance, system)``: a booted :class:`P2PSystem` on a fresh world."""
    instance, assignment, plan = api.build_world(
        scale=scale, seed=seed, n_reps=n_reps, hot_mass=hot_mass
    )
    system = api.P2PSystem(
        instance, assignment, plan=plan if with_plan else None, config=config
    )
    return instance, system
