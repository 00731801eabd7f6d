"""Edge cases of the hot-document perturbation."""

import pytest

from repro.model.system import SystemConfig, build_system
from repro.model.workload import add_hot_documents

WORLD = SystemConfig(
    seed=19,
    n_docs=100,
    n_nodes=10,
    n_categories=8,
    n_clusters=3,
    doc_size_bytes=65_536,
)


@pytest.fixture()
def instance():
    return build_system(WORLD)


class TestAddHotDocumentsMass:
    def test_mass_fraction_of_resulting_total(self, instance):
        before = instance.total_popularity
        result = add_hot_documents(
            instance, doc_fraction=0.05, mass_fraction=0.30, seed=4
        )
        after = instance.total_popularity
        # added / resulting == mass_fraction (the Figure 4 contract).
        assert result.added_mass / after == pytest.approx(0.30)
        assert after == pytest.approx(before + result.added_mass)
        instance.validate()

    def test_new_docs_carry_exactly_the_added_mass(self, instance):
        result = add_hot_documents(
            instance, doc_fraction=0.05, mass_fraction=0.25, seed=4
        )
        new_mass = sum(
            instance.documents[doc_id].popularity
            for doc_id in result.new_doc_ids
        )
        assert new_mass == pytest.approx(result.added_mass)

    def test_doc_count_rounds_doc_fraction(self, instance):
        result = add_hot_documents(instance, doc_fraction=0.05, seed=4)
        assert len(result.new_doc_ids) == 5  # 5% of 100

    def test_affected_categories_match_new_docs(self, instance):
        result = add_hot_documents(instance, doc_fraction=0.1, seed=4)
        observed = {
            category_id
            for doc_id in result.new_doc_ids
            for category_id in instance.documents[doc_id].categories
        }
        assert tuple(sorted(observed)) == result.affected_categories

    def test_category_subset_concentrates_targets(self, instance):
        result = add_hot_documents(
            instance,
            doc_fraction=0.2,
            seed=4,
            category_subset_fraction=0.25,
        )
        assert len(result.affected_categories) <= 2  # 25% of 8 categories

    def test_invalid_fractions_rejected(self, instance):
        with pytest.raises(ValueError, match="doc_fraction"):
            add_hot_documents(instance, doc_fraction=0.0)
        with pytest.raises(ValueError, match="mass_fraction"):
            add_hot_documents(instance, mass_fraction=1.0)
        with pytest.raises(ValueError, match="category_subset_fraction"):
            add_hot_documents(instance, category_subset_fraction=0.0)
