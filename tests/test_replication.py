"""Tests for repro.core.replication — the Section 4.3.3 placement policy."""

import numpy as np
import pytest

from repro.core.maxfair import Assignment
from repro.core.popularity import cluster_members
from repro.core.replication import (
    category_storage_requirement,
    plan_replication,
)


class TestStorageRequirement:
    def test_paper_example(self):
        # 1,000 docs x 5 replicas x 4 MB = 20 GB (Section 4.3.3).
        mb = 1024 * 1024
        assert category_storage_requirement(1000, 5, 4 * mb) == 20_000 * mb

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            category_storage_requirement(-1, 2, 3)


class TestPlanReplication:
    def test_every_document_has_replicas(self, small_instance, small_assignment):
        plan = plan_replication(
            small_instance, small_assignment, n_reps=2, hot_mass=0.35
        )
        holders: dict[int, int] = {}
        for docs in plan.node_docs.values():
            for doc_id in docs:
                holders[doc_id] = holders.get(doc_id, 0) + 1
        members = cluster_members(
            small_instance, small_assignment.category_to_cluster
        )
        for doc_id, doc in small_instance.documents.items():
            cluster = small_assignment.cluster_of(doc.categories[0])
            expected = min(2, len(members[cluster]))
            assert holders.get(doc_id, 0) >= expected, doc_id

    def test_hot_docs_on_every_cluster_node(
        self, small_instance, small_assignment
    ):
        plan = plan_replication(
            small_instance, small_assignment, n_reps=2, hot_mass=0.35
        )
        members = cluster_members(
            small_instance, small_assignment.category_to_cluster
        )
        assert plan.hot_doc_ids, "expected a non-empty hot set under Zipf"
        for doc_id in plan.hot_doc_ids:
            doc = small_instance.documents[doc_id]
            cluster = small_assignment.cluster_of(doc.categories[0])
            for node_id in members[cluster]:
                assert doc_id in plan.node_docs.get(node_id, set())

    def test_hot_set_is_small(self, small_instance, small_assignment):
        # Section 4.3.3: under realistic Zipf laws the hot set covering 35%
        # of the mass is well under 10% of documents per category.
        plan = plan_replication(
            small_instance, small_assignment, n_reps=2, hot_mass=0.35
        )
        assert len(plan.hot_doc_ids) < 0.15 * len(small_instance.documents)

    def test_replicas_on_distinct_nodes(self, small_instance, small_assignment):
        plan = plan_replication(
            small_instance, small_assignment, n_reps=2, hot_mass=0.0
        )
        # node_docs holds sets, so a node cannot hold a doc twice; make
        # sure cold docs actually reach 2 distinct nodes when possible.
        holders: dict[int, set[int]] = {}
        for node_id, docs in plan.node_docs.items():
            for doc_id in docs:
                holders.setdefault(doc_id, set()).add(node_id)
        members = cluster_members(
            small_instance, small_assignment.category_to_cluster
        )
        for doc_id, nodes in holders.items():
            doc = small_instance.documents[doc_id]
            cluster = small_assignment.cluster_of(doc.categories[0])
            assert len(nodes) >= min(2, len(members[cluster]))

    def test_hot_replication_improves_intra_fairness(
        self, small_instance, small_assignment
    ):
        bare = plan_replication(
            small_instance, small_assignment, n_reps=2, hot_mass=0.0
        )
        hot = plan_replication(
            small_instance, small_assignment, n_reps=2, hot_mass=0.35
        )
        bare_fairness = np.mean(
            [
                bare.intra_cluster_fairness(small_instance, small_assignment, c)
                for c in range(small_assignment.n_clusters)
            ]
        )
        hot_fairness = np.mean(
            [
                hot.intra_cluster_fairness(small_instance, small_assignment, c)
                for c in range(small_assignment.n_clusters)
            ]
        )
        assert hot_fairness > bare_fairness

    def test_byte_accounting_consistent(self, small_instance, small_plan):
        sizes = {d.doc_id: d.size_bytes for d in small_instance.documents.values()}
        for node_id, docs in small_plan.node_docs.items():
            expected = sum(sizes[d] for d in docs)
            assert small_plan.node_bytes[node_id] == expected

    def test_popularity_accounting_consistent(self, small_instance, small_plan):
        for node_id, docs in small_plan.node_docs.items():
            expected = sum(
                small_instance.documents[d].popularity for d in docs
            )
            assert small_plan.node_popularity[node_id] == pytest.approx(expected)

    def test_summary_helpers(self, small_plan):
        assert small_plan.max_node_bytes() >= small_plan.mean_node_bytes() > 0

    def test_rejects_bad_args(self, small_instance, small_assignment):
        with pytest.raises(ValueError):
            plan_replication(small_instance, small_assignment, n_reps=0)
        with pytest.raises(ValueError):
            plan_replication(small_instance, small_assignment, hot_mass=1.0)

    def test_rejects_incomplete_assignment(self, small_instance):
        incomplete = Assignment(
            category_to_cluster=np.full(len(small_instance.categories), -1),
            n_clusters=small_instance.n_clusters,
        )
        with pytest.raises(ValueError):
            plan_replication(small_instance, incomplete)

    def test_higher_n_reps_means_more_storage(
        self, small_instance, small_assignment
    ):
        low = plan_replication(
            small_instance, small_assignment, n_reps=1, hot_mass=0.0
        )
        high = plan_replication(
            small_instance, small_assignment, n_reps=3, hot_mass=0.0
        )
        assert sum(high.node_bytes.values()) > sum(low.node_bytes.values())
