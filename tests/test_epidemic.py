"""Tests for epidemic metadata dissemination."""

import pytest

from repro.overlay.epidemic import dcrt_convergence, run_gossip_until_converged

from tests.helpers import build_live_system


@pytest.fixture()
def gossip_system():
    _instance, system = build_live_system(scale=0.02, seed=21, with_plan=False)
    return system


class TestConvergenceMeasurement:
    def test_bootstrap_state_is_converged(self, gossip_system):
        report = dcrt_convergence(gossip_system)
        assert report.agreement == pytest.approx(1.0)
        assert report.fully_converged == report.n_peers

    def test_divergence_detected_after_move(self, gossip_system):
        system = gossip_system
        category_id = 0
        old = system.assignment.cluster_of(category_id)
        new = (old + 1) % system.assignment.n_clusters
        system.apply_reassignment(category_id, new)
        report = dcrt_convergence(system)
        assert report.agreement < 1.0


class TestGossipSpreadsUpdates:
    def test_converges_after_move(self, gossip_system):
        system = gossip_system
        category_id = 0
        old = system.assignment.cluster_of(category_id)
        new = (old + 1) % system.assignment.n_clusters
        system.apply_reassignment(category_id, new)
        counter = int(system.assignment.move_counters[category_id])
        # Seed the new mapping at a handful of peers (as reassign notices
        # would), then let gossip do the rest.
        for peer in system.alive_peers()[:5]:
            peer.dcrt.set(category_id, new, move_counter=counter)
        rounds, report = run_gossip_until_converged(
            system, max_rounds=40, target_agreement=1.0
        )
        assert report.agreement == pytest.approx(1.0)
        assert rounds < 40

    def test_gossip_does_not_resurrect_stale_mappings(self, gossip_system):
        system = gossip_system
        category_id = 0
        current = system.assignment.cluster_of(category_id)
        # One peer holds a *stale* belief with a lower move counter than
        # everyone's bootstrap entry... give everyone counter 2 first.
        for peer in system.alive_peers():
            peer.dcrt.set(category_id, current, move_counter=2)
        straggler = system.alive_peers()[0]
        straggler.dcrt.set(category_id, (current + 1) % system.assignment.n_clusters, 1)
        system.run_gossip_rounds(6)
        # The fresher mapping wins everywhere, including at the straggler.
        for peer in system.alive_peers():
            assert peer.dcrt.cluster_of(category_id) == current

