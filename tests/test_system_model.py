"""Tests for repro.model.system: configuration and instance construction."""

import numpy as np
import pytest

from repro.model.documents import Document
from repro.model.system import (
    SCENARIO_UNIFORM,
    SCENARIO_ZIPF,
    SystemConfig,
    build_system,
)


class TestSystemConfig:
    def test_paper_defaults(self):
        config = SystemConfig()
        assert config.n_docs == 200_000
        assert config.n_nodes == 20_000
        assert config.n_categories == 500
        assert config.n_clusters == 100
        assert config.doc_theta == 0.8
        assert config.capacity_range == (1, 5)
        assert config.categories_per_node == (1, 20)

    def test_scaled_preserves_ratios(self):
        config = SystemConfig().scaled(0.1)
        assert config.n_docs == 20_000
        assert config.n_nodes == 2_000
        assert config.n_categories == 50
        assert config.n_clusters == 10

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SystemConfig().scaled(0)

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            SystemConfig(scenario="weird")

    def test_rejects_bad_capacity_range(self):
        with pytest.raises(ValueError):
            SystemConfig(capacity_range=(5, 1))

    def test_rejects_bad_multi_category_fraction(self):
        with pytest.raises(ValueError):
            SystemConfig(multi_category_fraction=1.5)


class TestBuildSystem:
    def test_invariants_hold(self, small_instance):
        small_instance.validate()

    def test_counts_match_config(self, small_instance, small_config):
        assert len(small_instance.documents) == small_config.n_docs
        assert len(small_instance.nodes) == small_config.n_nodes
        assert len(small_instance.categories) == small_config.n_categories

    def test_total_popularity_is_one(self, small_instance):
        assert small_instance.total_popularity == pytest.approx(1.0)

    def test_category_popularity_matches_documents(self, small_instance):
        recomputed = np.zeros(len(small_instance.categories))
        for doc in small_instance.documents.values():
            for category_id in doc.categories:
                recomputed[category_id] += doc.popularity_per_category
        assert np.allclose(small_instance.category_popularity, recomputed)

    def test_every_document_has_exactly_one_contributor(self, small_instance):
        seen = set()
        for node in small_instance.nodes.values():
            for doc_id in node.contributed_doc_ids:
                assert doc_id not in seen
                seen.add(doc_id)
        assert seen == set(small_instance.documents)

    def test_node_categories_consistent(self, small_instance):
        for node_id, cats in small_instance.node_categories.items():
            node = small_instance.nodes[node_id]
            derived = set()
            for doc_id in node.contributed_doc_ids:
                derived.update(small_instance.documents[doc_id].categories)
            assert set(cats) == derived

    def test_deterministic_for_seed(self, small_config):
        a = build_system(small_config)
        b = build_system(small_config)
        assert a.category_popularity.tolist() == b.category_popularity.tolist()
        assert a.nodes[0].capacity_units == b.nodes[0].capacity_units

    def test_different_seeds_differ(self, small_config):
        from dataclasses import replace

        a = build_system(small_config)
        b = build_system(replace(small_config, seed=small_config.seed + 1))
        assert a.category_popularity.tolist() != b.category_popularity.tolist()

    def test_capacities_in_range(self, small_instance, small_config):
        low, high = small_config.capacity_range
        for node in small_instance.nodes.values():
            assert low <= node.capacity_units <= high

    def test_zipf_scenario_more_skewed_than_uniform(
        self, small_instance, uniform_instance
    ):
        def cv(values):
            values = np.asarray(values)
            return values.std() / values.mean()

        zipf_docs = [c.n_docs for c in small_instance.categories]
        uniform_docs = [c.n_docs for c in uniform_instance.categories]
        assert cv(zipf_docs) > cv(uniform_docs)

    def test_multi_category_fraction(self):
        config = SystemConfig(
            n_docs=500,
            n_nodes=50,
            n_categories=10,
            n_clusters=3,
            multi_category_fraction=0.5,
            seed=1,
        )
        instance = build_system(config)
        multi = sum(
            1 for d in instance.documents.values() if len(d.categories) > 1
        )
        assert 0.3 < multi / len(instance.documents) < 0.7
        instance.validate()

    def test_scenario_constants(self):
        assert SCENARIO_ZIPF == "zipf"
        assert SCENARIO_UNIFORM == "uniform"


class TestInstanceMutation:
    def test_add_document(self, mutable_instance):
        doc_id = mutable_instance.fresh_doc_id()
        doc = Document(doc_id=doc_id, popularity=0.05, categories=(3,))
        before = mutable_instance.categories[3].popularity
        mutable_instance.add_document(doc, contributor_id=0)
        assert mutable_instance.categories[3].popularity == pytest.approx(
            before + 0.05
        )
        assert doc_id in mutable_instance.nodes[0].contributed_doc_ids
        assert 3 in mutable_instance.node_categories[0]
        mutable_instance.validate()

    def test_add_duplicate_rejected(self, mutable_instance):
        doc = Document(doc_id=0, popularity=0.05, categories=(3,))
        with pytest.raises(ValueError):
            mutable_instance.add_document(doc, contributor_id=0)

    def test_add_unknown_contributor_rejected(self, mutable_instance):
        doc = Document(
            doc_id=mutable_instance.fresh_doc_id(), popularity=0.05, categories=(3,)
        )
        with pytest.raises(KeyError):
            mutable_instance.add_document(doc, contributor_id=10**9)

    def test_fresh_doc_ids_unique(self, mutable_instance):
        ids = {mutable_instance.fresh_doc_id() for _ in range(10)}
        assert len(ids) == 10
        assert all(i not in mutable_instance.documents for i in ids)
