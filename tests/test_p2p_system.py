"""Integration tests for the live P2PSystem façade."""

import numpy as np
import pytest

from repro.metrics.response import summarize_responses
from repro.model.workload import make_query_workload
from repro.overlay import peer as peer_module
from repro.overlay.peer import DocInfo
from repro.overlay.system import P2PSystem, P2PSystemConfig

from tests.helpers import build_world


@pytest.fixture(scope="module")
def world():
    return build_world(scale=0.02, seed=31)


@pytest.fixture()
def system(world):
    instance, assignment, plan = world
    return P2PSystem(instance, assignment, plan=plan)


class TestBootstrap:
    def test_all_nodes_have_peers(self, world, system):
        instance, _, _ = world
        assert len(system.alive_peers()) == len(instance.nodes)

    def test_dcrt_matches_assignment(self, world, system):
        instance, assignment, _ = world
        peer = system.alive_peers()[0]
        for category_id in range(len(instance.categories)):
            assert peer.dcrt.cluster_of(category_id) == assignment.cluster_of(
                category_id
            )

    def test_contributors_are_members(self, world, system):
        instance, assignment, _ = world
        for node_id, cats in instance.node_categories.items():
            peer = system.peer(node_id)
            for category_id in cats:
                assert assignment.cluster_of(category_id) in peer.memberships

    def test_documents_placed_per_plan(self, world, system):
        _, _, plan = world
        for node_id, docs in plan.node_docs.items():
            peer = system.peer(node_id)
            if peer is not None:
                for doc_id in docs:
                    assert peer.dt.has_document(doc_id)

    def test_cluster_neighbors_are_members(self, world, system):
        instance, assignment, _ = world
        for peer in system.alive_peers():
            for cluster_id, neighbors in peer.cluster_neighbors.items():
                members = {
                    p.node_id for p in system.peers_in_cluster(cluster_id)
                }
                assert neighbors <= members

    def test_default_world_has_no_subsystems(self, system):
        # Optional features are absent, not disabled: nothing registered,
        # only the two always-on loops, and a control round does nothing.
        assert system.subsystems == []
        assert (system.recovery, system.replication, system.content) == (None,) * 3
        assert sorted(system.rounds) == ["detector", "gossip"]
        processed = system.sim.events_processed
        assert system.run_control_round() == {}
        assert system.run_round("healing") is None
        assert system.sim.events_processed == processed
        assert system.sim.pending() == 0

    def test_incomplete_assignment_rejected(self, world):
        instance, assignment, _ = world
        from repro.core.maxfair import Assignment

        incomplete = Assignment(
            category_to_cluster=np.full(len(instance.categories), -1),
            n_clusters=instance.n_clusters,
        )
        with pytest.raises(ValueError):
            P2PSystem(instance, incomplete)


class TestWorkloadExecution:
    def test_queries_succeed_with_bounded_hops(self, world, system):
        instance, _, _ = world
        outcomes = system.run_workload(make_query_workload(instance, 800, seed=1))
        stats = summarize_responses(outcomes)
        assert stats.success_rate > 0.99
        # The paper's architectural claim: a few hops in the common case.
        assert stats.mean_hops <= 3.0
        largest_cluster = max(
            len(system.peers_in_cluster(c))
            for c in range(system.assignment.n_clusters)
        )
        assert stats.max_hops <= largest_cluster

    def test_repeat_workloads_independent(self, world, system):
        instance, _, _ = world
        first = system.run_workload(make_query_workload(instance, 200, seed=2))
        second = system.run_workload(make_query_workload(instance, 200, seed=3))
        assert summarize_responses(first).n_queries == 200
        assert summarize_responses(second).n_queries == 200
        assert summarize_responses(second).success_rate > 0.99

    def test_loads_accumulate(self, world, system):
        instance, _, _ = world
        system.reset_hit_counters()
        system.run_workload(make_query_workload(instance, 300, seed=4))
        assert sum(system.node_loads().values()) >= 300 * 0.99

    def test_loads_read_the_peers_after_a_power_loss(self, world, system):
        instance, _, _ = world
        system.run_workload(make_query_workload(instance, 300, seed=4))
        loads = system.node_loads()
        victim = max(loads, key=loads.get)
        assert loads[victim] > 0
        # The amnesia wipes the served counter; the load view must not
        # keep reporting what the node served before it.
        system.power_loss(victim)
        assert system.peers[victim].requests_served == 0
        assert system.node_loads()[victim] == 0

    def test_category_level_workload(self, world, system):
        instance, _, _ = world
        outcomes = system.run_workload(
            make_query_workload(instance, 100, seed=5), doc_targeted=False
        )
        assert summarize_responses(outcomes).success_rate > 0.99


class TestChurn:
    def test_leave_keeps_queries_working(self, world):
        instance, assignment, plan = world
        system = P2PSystem(instance, assignment, plan=plan)
        leavers = [p.node_id for p in system.alive_peers()[:5]]
        for node_id in leavers:
            system.leave_node(node_id)
        assert all(system.peer(n) is None for n in leavers)
        outcomes = system.run_workload(make_query_workload(instance, 500, seed=6))
        stats = summarize_responses(outcomes)
        # Requesters that left are skipped; surviving queries should
        # overwhelmingly succeed thanks to replicas.
        assert stats.n_queries <= 500
        assert stats.success_rate > 0.9

    def test_crash_is_tolerated(self, world):
        instance, assignment, plan = world
        system = P2PSystem(instance, assignment, plan=plan)
        victims = [p.node_id for p in system.alive_peers()[:3]]
        for node_id in victims:
            system.crash_node(node_id)
        outcomes = system.run_workload(make_query_workload(instance, 500, seed=7))
        stats = summarize_responses(outcomes)
        assert stats.success_rate > 0.85

    def test_join_new_contributor(self, world):
        instance, assignment, plan = world
        system = P2PSystem(instance, assignment, plan=plan)
        new_id = max(instance.nodes) + 1
        category_id = 0
        peer = system.join_node(
            new_id,
            capacity_units=3.0,
            doc_infos=[
                DocInfo(doc_id=10**6, categories=(category_id,), size_bytes=100)
            ],
        )
        target_cluster = assignment.cluster_of(category_id)
        assert target_cluster in peer.memberships
        assert peer.dcrt.cluster_of(category_id) == target_cluster
        # The joiner is known to at least one member of the cluster.
        known_by = sum(
            1
            for member in system.peers_in_cluster(target_cluster)
            if new_id in member.nrt.nodes_in(target_cluster)
        )
        assert known_by >= 1

    def test_join_free_rider(self, world):
        instance, assignment, plan = world
        system = P2PSystem(instance, assignment, plan=plan)
        new_id = max(instance.nodes) + 50
        peer = system.join_node(new_id, capacity_units=1.0)
        assert 0 in peer.memberships  # dummy publish -> cluster 0

    def test_double_join_rejected(self, world):
        instance, assignment, plan = world
        system = P2PSystem(instance, assignment, plan=plan)
        existing = system.alive_peers()[0].node_id
        with pytest.raises(ValueError):
            system.join_node(existing, capacity_units=1.0)


class TestConfig:
    def test_nrt_capacity_applied(self, world, monkeypatch):
        # No tier-1 world has a cluster past the real bound, so a small
        # one stands in for it.
        monkeypatch.setattr(peer_module, "NRT_CAPACITY", 16)
        instance, assignment, plan = world
        system = P2PSystem(instance, assignment, plan=plan)
        sizes = [
            len(peer.nrt.nodes_in(cluster_id))
            for peer in system.alive_peers()
            for cluster_id in peer.nrt.clusters()
        ]
        assert max(sizes) == 16

    def test_deterministic_for_seed(self, world):
        instance, assignment, plan = world
        a = P2PSystem(instance, assignment, plan=plan,
                      config=P2PSystemConfig(seed=5))
        b = P2PSystem(instance, assignment, plan=plan,
                      config=P2PSystemConfig(seed=5))
        workload = make_query_workload(instance, 200, seed=8)
        outcomes_a = a.run_workload(workload)
        outcomes_b = b.run_workload(workload)
        assert [o.results for o in outcomes_a] == [o.results for o in outcomes_b]
        assert a.node_loads() == b.node_loads()
