"""Tests for the super-peer (hybrid) metadata mode (future-work item iv)."""

import numpy as np
import pytest

from repro.metrics.response import summarize_responses
from repro.model.workload import make_query_workload
from repro.overlay.system import P2PSystem, P2PSystemConfig

from tests.helpers import build_world


@pytest.fixture(scope="module")
def world():
    return build_world(scale=0.02, seed=51, hot_mass=0.0)


def _run(world, mode):
    instance, assignment, plan = world
    system = P2PSystem(
        instance,
        assignment,
        plan=plan,
        config=P2PSystemConfig(metadata_mode=mode, seed=1),
    )
    workload = make_query_workload(instance, 2500, seed=52)
    outcomes = system.run_workload(workload)
    return system, summarize_responses(outcomes)


class TestSuperPeerMode:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            P2PSystemConfig(metadata_mode="holographic")

    def test_super_peer_is_most_capable(self, world):
        instance, assignment, plan = world
        system = P2PSystem(
            instance, assignment, plan=plan,
            config=P2PSystemConfig(metadata_mode="super_peer"),
        )
        for cluster_id, super_peer in system.topology.super_peers.items():
            members = system.peers_in_cluster(cluster_id)
            top = max(peer.capacity_units for peer in members)
            assert system.peer(super_peer).capacity_units == top

    def test_queries_still_succeed(self, world):
        _, stats = _run(world, "super_peer")
        assert stats.success_rate > 0.99

    def test_extra_hop_through_super_peer(self, world):
        _, replicated = _run(world, "replicated")
        _, hybrid = _run(world, "super_peer")
        # Routing through the super peer costs about one extra hop.
        assert hybrid.mean_hops > replicated.mean_hops
        assert hybrid.max_hops <= replicated.max_hops + 2

    def test_routing_load_concentrates_on_super_peers(self, world):
        system, _ = _run(world, "super_peer")
        super_peers = set(system.topology.super_peers.values())
        routed_by_super = sum(
            peer.queries_routed
            for peer in system.alive_peers()
            if peer.node_id in super_peers
        )
        routed_total = sum(peer.queries_routed for peer in system.alive_peers())
        assert routed_total > 0
        # Every non-local retrieval routes once at its entry node and once
        # at the super peer, so the (few) super peers absorb half of all
        # routing steps — and the single busiest router is a super peer.
        assert routed_by_super / routed_total >= 0.45
        busiest = max(system.alive_peers(), key=lambda p: p.queries_routed)
        assert busiest.node_id in super_peers

    def test_replicated_mode_spreads_routing(self, world):
        system, _ = _run(world, "replicated")
        routers = [
            peer.node_id
            for peer in system.alive_peers()
            if peer.queries_routed > 0
        ]
        # Many nodes participate in routing when metadata is everywhere.
        assert len(routers) > 10
