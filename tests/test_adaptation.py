"""Tests for the four-phase adaptation mechanism over a live system."""

import pytest

from repro.model.workload import add_hot_documents, make_query_workload
from repro.overlay.adaptation import AdaptationConfig
from repro.overlay.peer import DocInfo

from tests.helpers import build_live_system


@pytest.fixture(scope="module")
def live_system():
    return build_live_system(scale=0.02, seed=5)


class TestAdaptationConfig:
    def test_paper_defaults(self):
        config = AdaptationConfig()
        assert config.low_threshold == 0.83
        assert config.high_threshold == 0.92

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError):
            AdaptationConfig(low_threshold=0.95, high_threshold=0.90)


class TestAdaptationRound:
    def test_leaders_elected_for_every_populated_cluster(self, live_system):
        instance, system = live_system
        system.run_workload(make_query_workload(instance, 500, seed=1))
        outcome = system.run_adaptation(round_id=0)
        populated = {
            cluster_id
            for cluster_id in range(system.assignment.n_clusters)
            if system.peers_in_cluster(cluster_id)
        }
        assert set(outcome.leaders) == populated

    def test_leader_is_most_capable_member(self, live_system):
        instance, system = live_system
        outcome = system.run_adaptation(round_id=1)
        for cluster_id, leader_id in outcome.leaders.items():
            members = system.peers_in_cluster(cluster_id)
            top = max(peer.capacity_units for peer in members)
            leader = system.peer(leader_id)
            assert leader.capacity_units == top

    def test_balanced_system_not_rebalanced(self, live_system):
        instance, system = live_system
        system.reset_hit_counters()
        system.run_workload(make_query_workload(instance, 2000, seed=2))
        outcome = system.run_adaptation(round_id=2)
        assert outcome.observed_fairness > 0.83
        assert not outcome.rebalanced

    def test_observed_fairness_in_unit_interval(self, live_system):
        instance, system = live_system
        outcome = system.run_adaptation(round_id=3)
        assert 0.0 <= outcome.observed_fairness <= 1.0

    def test_round_charges_network_traffic(self, live_system):
        instance, system = live_system
        outcome = system.run_adaptation(round_id=4)
        assert outcome.bytes_used > 0


class TestFlashCrowdRecovery:
    def test_full_loop(self):
        """Flash crowd -> detection -> rebalance -> stable."""
        instance, system = build_live_system(scale=0.02, seed=9)

        perturbation = add_hot_documents(
            instance, mass_fraction=0.45, seed=3, category_subset_fraction=0.1
        )
        owner_of = {}
        for node_id, node in instance.nodes.items():
            for doc_id in node.contributed_doc_ids:
                owner_of[doc_id] = node_id
        for doc_id in perturbation.new_doc_ids:
            doc = instance.documents[doc_id]
            publisher = system.peer(owner_of[doc_id])
            if publisher is not None:
                publisher.membership.publish_document(
                    DocInfo(doc_id, doc.categories, doc.size_bytes)
                )
        system.sim.run()

        config = AdaptationConfig(low_threshold=0.92, high_threshold=0.94)
        fairness = []
        rebalanced_rounds = 0
        for round_id in range(1, 5):
            system.reset_hit_counters()
            system.run_workload(
                make_query_workload(instance, 3000, seed=100 + round_id)
            )
            outcome = system.run_adaptation(round_id=round_id, config=config)
            fairness.append(outcome.observed_fairness)
            rebalanced_rounds += outcome.rebalanced
        # At least one round rebalanced, and the system ends above where
        # it started.
        assert rebalanced_rounds >= 1
        assert fairness[-1] > fairness[0]
        # Once stabilized the last round should not need to rebalance
        # (convergence, not oscillation).
        assert fairness[-1] >= config.low_threshold

    def test_moves_update_authoritative_assignment(self):
        instance, system = build_live_system(
            scale=0.02, seed=9, with_plan=False
        )
        before = system.assignment.category_to_cluster.copy()

        add_hot_documents(
            instance, mass_fraction=0.5, seed=4, category_subset_fraction=0.05
        )
        system.reset_hit_counters()
        system.run_workload(make_query_workload(instance, 3000, seed=11))
        outcome = system.run_adaptation(
            round_id=1,
            config=AdaptationConfig(low_threshold=0.95, high_threshold=0.97),
        )
        if outcome.rebalanced and outcome.moved_categories:
            after = system.assignment.category_to_cluster
            changed = [
                s for s in outcome.moved_categories if after[s] != before[s]
            ]
            assert changed, "moves must be reflected in the assignment"
            for category_id in set(outcome.moved_categories):
                assert system.assignment.move_counters[category_id] >= 1
