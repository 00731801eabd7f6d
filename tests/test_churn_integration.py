"""Integration: Poisson churn driving a live system."""

import numpy as np
import pytest

from repro.metrics.response import summarize_responses
from repro.model.workload import make_query_workload

from tests.helpers import build_live_system


@pytest.fixture()
def churny_world():
    return build_live_system(scale=0.02, seed=81)


class TestScheduledChurn:
    def test_system_survives_poisson_churn(self, churny_world):
        instance, system = churny_world
        # Poisson-many distinct leavers (mean 20) and fresh joiners (mean
        # 10), interleaved at random.
        rng = np.random.default_rng(82)
        leavers = rng.choice(
            sorted(instance.nodes), size=rng.poisson(20), replace=False
        )
        first_joiner = max(instance.nodes) + 1
        events = [("leave", int(node_id)) for node_id in leavers] + [
            ("join", first_joiner + i) for i in range(rng.poisson(10))
        ]
        applied_leaves = applied_joins = 0
        for index in rng.permutation(len(events)).tolist():
            kind, node_id = events[index]
            if kind == "leave" and system.peer(node_id) is not None:
                system.leave_node(node_id)
                applied_leaves += 1
            elif kind == "join":
                system.join_node(node_id, capacity_units=2.0)
                applied_joins += 1
        assert applied_leaves > 0
        assert applied_joins > 0

        outcomes = system.run_workload(make_query_workload(instance, 800, seed=83))
        stats = summarize_responses(outcomes)
        assert stats.success_rate > 0.9

    def test_adaptation_still_works_after_churn(self, churny_world):
        instance, system = churny_world
        for peer in system.alive_peers()[:8]:
            system.leave_node(peer.node_id)
        system.run_workload(make_query_workload(instance, 1500, seed=84))
        outcome = system.run_adaptation(round_id=1)
        assert outcome.leaders  # clusters still have leaders
        assert 0.0 <= outcome.observed_fairness <= 1.0

    def test_joiner_can_query_immediately(self, churny_world):
        from repro.model.workload import Query, QueryWorkload

        instance, system = churny_world
        new_id = max(instance.nodes) + 99
        system.join_node(new_id, capacity_units=1.0)
        # The joiner's metadata snapshot lets it retrieve content at once.
        target_doc = next(iter(instance.documents.values()))
        workload = QueryWorkload(
            queries=[
                Query(
                    query_id=0,
                    requester_id=new_id,
                    target_doc_id=target_doc.doc_id,
                    category_ids=target_doc.categories,
                    m=1,
                )
            ]
        )
        outcomes = system.run_workload(workload)
        assert len(outcomes) == 1
        assert outcomes[0].succeeded
