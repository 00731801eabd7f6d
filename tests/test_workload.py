"""Tests for repro.model.workload."""

import numpy as np
import pytest

from repro.model.workload import (
    add_hot_documents,
    make_query_workload,
    uniform_category_scenario,
    zipf_category_scenario,
)


class TestScenarios:
    def test_zipf_scenario_scales(self):
        instance = zipf_category_scenario(scale=0.01, seed=1)
        assert len(instance.documents) == 2000
        assert len(instance.nodes) == 200
        assert len(instance.categories) == 5
        assert instance.n_clusters == 1

    def test_uniform_scenario_near_uniform_docs(self):
        instance = uniform_category_scenario(scale=0.02, seed=2)
        docs_per_category = np.array([c.n_docs for c in instance.categories])
        assert docs_per_category.std() / docs_per_category.mean() < 0.3

    def test_scenarios_validate(self):
        zipf_category_scenario(scale=0.01, seed=3).validate()
        uniform_category_scenario(scale=0.01, seed=3).validate()


class TestQueryWorkload:
    def test_length_and_determinism(self, small_instance):
        a = make_query_workload(small_instance, 100, seed=5)
        b = make_query_workload(small_instance, 100, seed=5)
        assert len(a) == 100
        assert [q.target_doc_id for q in a] == [q.target_doc_id for q in b]

    def test_different_seed_differs(self, small_instance):
        a = make_query_workload(small_instance, 100, seed=5)
        b = make_query_workload(small_instance, 100, seed=6)
        assert [q.target_doc_id for q in a] != [q.target_doc_id for q in b]

    def test_queries_follow_popularity(self, small_instance):
        workload = make_query_workload(small_instance, 20_000, seed=7)
        counts = workload.doc_hit_counts(len(small_instance.documents))
        popularity = np.array(
            [small_instance.documents[d].popularity
             for d in sorted(small_instance.documents)]
        )
        # Correlation between request counts and popularity must be strong.
        correlation = np.corrcoef(counts, popularity)[0, 1]
        assert correlation > 0.8

    def test_category_ids_match_target_doc(self, small_instance):
        workload = make_query_workload(small_instance, 50, seed=8)
        for query in workload:
            doc = small_instance.documents[query.target_doc_id]
            assert query.category_ids == doc.categories

    def test_requesters_are_valid_nodes(self, small_instance):
        workload = make_query_workload(small_instance, 50, seed=9)
        for query in workload:
            assert query.requester_id in small_instance.nodes

    def test_m_parameter(self, small_instance):
        workload = make_query_workload(small_instance, 10, seed=10, m=5)
        assert all(q.m == 5 for q in workload)

    def test_rejects_negative_count(self, small_instance):
        with pytest.raises(ValueError):
            make_query_workload(small_instance, -1)


class TestAddHotDocuments:
    def test_mass_fraction_respected(self, mutable_instance):
        before = mutable_instance.total_popularity
        result = add_hot_documents(
            mutable_instance, doc_fraction=0.05, mass_fraction=0.30, seed=1
        )
        after = mutable_instance.total_popularity
        new_mass = sum(
            mutable_instance.documents[d].popularity for d in result.new_doc_ids
        )
        assert new_mass / after == pytest.approx(0.30, rel=1e-6)
        assert after == pytest.approx(before + result.added_mass)

    def test_doc_fraction_respected(self, mutable_instance):
        n_before = len(mutable_instance.documents)
        result = add_hot_documents(mutable_instance, doc_fraction=0.05, seed=2)
        assert len(result.new_doc_ids) == round(n_before * 0.05)

    def test_instance_still_valid(self, mutable_instance):
        add_hot_documents(mutable_instance, seed=3)
        mutable_instance.validate()

    def test_category_subset_limits_targets(self, mutable_instance):
        result = add_hot_documents(
            mutable_instance, seed=4, category_subset_fraction=0.1
        )
        n_categories = len(mutable_instance.categories)
        assert len(result.affected_categories) <= max(1, round(n_categories * 0.1))

    def test_rejects_bad_fractions(self, mutable_instance):
        with pytest.raises(ValueError):
            add_hot_documents(mutable_instance, doc_fraction=0.0)
        with pytest.raises(ValueError):
            add_hot_documents(mutable_instance, mass_fraction=1.0)
        with pytest.raises(ValueError):
            add_hot_documents(mutable_instance, category_subset_fraction=0.0)

    def test_deterministic(self, small_config):
        from repro.model.system import build_system

        a = build_system(small_config)
        b = build_system(small_config)
        ra = add_hot_documents(a, seed=5)
        rb = add_hot_documents(b, seed=5)
        assert ra.new_doc_ids == rb.new_doc_ids
        assert ra.affected_categories == rb.affected_categories
