"""World identity: the bulk bootstrap builds the per-item bootstrap's world.

``P2PSystem._bootstrap`` and ``ClusterTopology.bootstrap`` place documents,
DCRT rows, NRT entries and capability tables in bulk.  The per-item code
they replaced is kept here as the reference builder, and the two worlds
must be equal *in iteration order* — table order decides which node a
seeded draw picks, so an equal-as-sets world would still answer a workload
differently.
"""

import numpy as np
import pytest

from repro.core.replication import build_world
from repro.model.workload import make_query_workload
from repro.overlay.cluster import build_cluster_graph
from repro.overlay import peer as peer_module
from repro.overlay.peer import DocInfo
from repro.overlay.system import P2PSystem, P2PSystemConfig


def _reference_join(peer, cluster_id, known_members):
    """``Peer.join_cluster`` one ``NRT.add`` at a time, self first."""
    peer.memberships.add(cluster_id)
    peer.nrt.add(cluster_id, peer.node_id)
    for node_id in known_members:
        peer.nrt.add(cluster_id, node_id)
    peer.cluster_neighbors.setdefault(cluster_id, set())
    peer.known_capabilities.setdefault(cluster_id, {})[peer.node_id] = (
        peer.capacity_units
    )
    peer.hooks.on_cluster_joined(peer, cluster_id)


def _reference_topology_bootstrap(topology, instance, assignment, config):
    """``ClusterTopology.bootstrap`` as it was: a call per NRT entry, a
    private capability table per member filled one entry at a time."""
    peers, rng = topology._peers, topology._rng
    for node_id, cats in instance.node_categories.items():
        for category_id in cats:
            cluster_id = int(assignment.category_to_cluster[category_id])
            topology.members[cluster_id].add(node_id)

    all_nodes = sorted(peers)
    for cluster_id, members in topology.members.items():
        member_list = sorted(members)
        members_array = np.array(member_list, dtype=np.int64)
        for node_id in member_list:
            peer = peers[node_id]
            keep = min(len(member_list), peer_module.NRT_CAPACITY)
            known = members_array[rng.permutation(len(members_array))[:keep]]
            _reference_join(peer, cluster_id, known.tolist())
            for member in member_list:
                peer.known_capabilities[cluster_id][member] = (
                    instance.nodes[member].capacity_units
                )
        if member_list:
            sample_size = min(config.remote_nrt_sample, len(member_list))
            for node_id in all_nodes:
                if node_id in members:
                    continue
                picks = rng.choice(len(member_list), size=sample_size, replace=False)
                for i in picks:
                    peers[node_id].nrt.add(cluster_id, member_list[int(i)])

    for cluster_id, members in topology.members.items():
        if not members:
            continue
        graph = build_cluster_graph(cluster_id, sorted(members), rng, degree=4)
        topology.graphs[cluster_id] = graph
        for node_id in members:
            peers[node_id].set_cluster_neighbors(cluster_id, graph.neighbors(node_id))

    if config.metadata_mode == "super_peer":
        for cluster_id, members in topology.members.items():
            if not members:
                continue
            super_peer = max(
                members, key=lambda n: (instance.nodes[n].capacity_units, n)
            )
            topology.super_peers[cluster_id] = super_peer
            for peer in peers.values():
                peer.super_peers[cluster_id] = super_peer


class ReferenceSystem(P2PSystem):
    """``P2PSystem`` with the per-item bootstrap it had before the bulk one."""

    def _bootstrap(self):
        instance, assignment = self.instance, self.assignment
        for node_id, node in sorted(instance.nodes.items()):
            self._new_peer(node_id, node.capacity_units)
        infos = {
            doc_id: DocInfo(doc.doc_id, doc.categories, doc.size_bytes)
            for doc_id, doc in instance.documents.items()
        }
        if self.plan is not None:
            for node_id, doc_ids in self.plan.node_docs.items():
                peer = self._peers.get(node_id)
                if peer is None:
                    continue
                for doc_id in doc_ids:
                    peer.store_document(infos[doc_id])
        for node_id, node in instance.nodes.items():
            peer = self._peers[node_id]
            for doc_id in node.contributed_doc_ids:
                if doc_id not in peer.docs:
                    peer.store_document(infos[doc_id])
        for peer in self._peers.values():
            for category_id in range(self.n_categories):
                peer.dcrt.set(
                    category_id,
                    int(assignment.category_to_cluster[category_id]),
                    int(assignment.move_counters[category_id]),
                )
        _reference_topology_bootstrap(
            self.topology, instance, assignment, self.config
        )


def _ordered(mapping_of_collections):
    return [(key, list(values)) for key, values in mapping_of_collections.items()]


def _world_state(system):
    """Everything bootstrap writes, in iteration order."""
    peers = {
        node_id: {
            "docs": list(peer.docs.items()),
            "nrt": _ordered(peer.nrt._clusters),
            "dcrt": list(peer.dcrt._entries.items()),
            "memberships": list(peer.memberships),
            "cluster_neighbors": _ordered(peer.cluster_neighbors),
            "super_peers": list(peer.super_peers.items()),
            # Compared as mappings: order inside a capability table went
            # from "self first" to sorted, and nothing reads it.
            "known_capabilities": {
                cluster_id: dict(table)
                for cluster_id, table in peer.known_capabilities.items()
            },
        }
        for node_id, peer in system.peers.items()
    }
    return {
        "peers": list(peers.items()),
        "doc_holders": _ordered(system.ledger._doc_holders),
        "members": _ordered(system.topology.members),
        "graphs": [
            (cluster_id, _ordered(graph.adjacency))
            for cluster_id, graph in system.topology.graphs.items()
        ],
        "super_peers": list(system.topology.super_peers.items()),
    }


def _next_draws(system):
    return [
        system.rngs.stream(name).integers(0, 2**62, size=4).tolist()
        for name in ("topology", "protocol")
    ]


@pytest.fixture(scope="module", params=(7, 31))
def world(request):
    return request.param, build_world(scale=0.01, seed=request.param)


@pytest.mark.parametrize(
    "overrides, nrt_capacity, with_plan",
    [
        ({}, None, True),
        ({}, 8, True),
        ({"metadata_mode": "super_peer"}, None, True),
        ({}, None, False),
    ],
    ids=["default", "nrt_capacity=8", "super_peer", "plan=None"],
)
def test_bulk_bootstrap_builds_the_per_item_world(
    world, overrides, nrt_capacity, with_plan, monkeypatch
):
    seed, (instance, assignment, plan) = world
    if nrt_capacity is not None:
        # No tier-1 world has a cluster past the real bound.
        monkeypatch.setattr(peer_module, "NRT_CAPACITY", nrt_capacity)
    config = P2PSystemConfig(seed=seed, **overrides)
    if not with_plan:
        plan = None
    built = P2PSystem(instance, assignment, plan=plan, config=config)
    reference = ReferenceSystem(instance, assignment, plan=plan, config=config)
    if nrt_capacity is not None:
        # The case is only worth its name if tables overflow.
        assert max(map(len, built.topology.members.values())) > nrt_capacity

    # Section by section, so a failure names the table that differs.
    state, expected = _world_state(built), _world_state(reference)
    for (node_id, tables), (_, expected_tables) in zip(
        state.pop("peers"), expected.pop("peers"), strict=True
    ):
        for name, table in tables.items():
            assert table == expected_tables[name], (node_id, name)
    for name, section in state.items():
        assert section == expected[name], name
    assert _next_draws(built) == _next_draws(reference)

    workload = make_query_workload(instance, 500, seed=seed)
    assert built.run_workload(workload) == reference.run_workload(workload)
    assert list(built.node_loads().items()) == list(reference.node_loads().items())
