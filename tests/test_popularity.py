"""Tests for repro.core.popularity — the Section 4.3.3 capacity model and
its reduction to the Section 4.1 / 4.3.1 models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.popularity import (
    build_category_stats,
    cluster_members,
    normalized_cluster_popularities,
)
from repro.model.documents import Document
from repro.model.nodes import Node
from repro.model.system import (
    SCENARIO_UNIFORM,
    SCENARIO_ZIPF,
    SystemConfig,
    SystemInstance,
    build_system,
)


def _tiny_instance(
    doc_specs, node_specs, n_categories, n_clusters
) -> SystemInstance:
    """Hand-build an instance from (pop, cats, contributor) and (id, units)."""
    config = SystemConfig(
        n_docs=len(doc_specs),
        n_nodes=len(node_specs),
        n_categories=n_categories,
        n_clusters=n_clusters,
        seed=0,
    )
    documents = {}
    from repro.model.documents import Category

    categories = [Category(category_id=i) for i in range(n_categories)]
    nodes = {nid: Node(node_id=nid, capacity_units=u) for nid, u in node_specs}
    node_categories: dict[int, list[int]] = {}
    for doc_id, (pop, cats, contributor) in enumerate(doc_specs):
        doc = Document(doc_id=doc_id, popularity=pop, categories=tuple(cats))
        documents[doc_id] = doc
        nodes[contributor].contribute(doc_id)
        for c in cats:
            categories[c].add_document(doc)
            node_categories.setdefault(contributor, [])
            if c not in node_categories[contributor]:
                node_categories[contributor].append(c)
    for v in node_categories.values():
        v.sort()
    return SystemInstance(
        config=config,
        documents=documents,
        categories=categories,
        nodes=nodes,
        node_categories=node_categories,
        _next_doc_id=len(documents),
    )


@st.composite
def one_category_per_node(draw, capacity_range=None):
    """A world where every node contributes to one category: at least as
    many nodes as categories, so the round-robin deal gives each node one."""
    n_categories = draw(st.integers(min_value=1, max_value=12))
    if capacity_range is None:
        low = draw(st.integers(min_value=1, max_value=5))
        capacity_range = (low, draw(st.integers(min_value=low, max_value=6)))
    return SystemConfig(
        n_docs=draw(st.integers(min_value=1, max_value=150)),
        n_nodes=draw(st.integers(min_value=n_categories, max_value=40)),
        n_categories=n_categories,
        n_clusters=1,
        scenario=draw(st.sampled_from((SCENARIO_ZIPF, SCENARIO_UNIFORM))),
        capacity_range=capacity_range,
        categories_per_node=(1, 1),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


def _contributor_units(instance: SystemInstance) -> list[list[float]]:
    """Per category, the units of the nodes contributing documents to it
    (``node_categories`` holds exactly the contributing nodes)."""
    units: list[list[float]] = [[] for _ in instance.categories]
    for node_id, cats in instance.node_categories.items():
        assert len(cats) == 1
        units[cats[0]].append(instance.nodes[node_id].capacity_units)
    return units


class TestCategoryStats:
    def test_popularity_matches_instance(self, small_instance, small_stats):
        assert np.allclose(
            small_stats.popularity, small_instance.category_popularity
        )

    def test_storage_weights_sum_to_total_capacity(
        self, small_instance, small_stats
    ):
        # Each contributing node splits its units across its categories, so
        # the weights must sum to the total capacity of contributing nodes.
        total = sum(
            small_instance.nodes[n].capacity_units
            for n in small_instance.node_categories
        )
        assert small_stats.storage_weight.sum() == pytest.approx(total)

    def test_with_popularity_swaps_only_popularity(self, small_stats):
        new_pop = np.arange(small_stats.n_categories, dtype=float)
        hybrid = small_stats.with_popularity(new_pop)
        assert np.array_equal(hybrid.popularity, new_pop)
        assert hybrid.storage_weight is small_stats.storage_weight

    def test_with_popularity_rejects_bad_length(self, small_stats):
        with pytest.raises(ValueError):
            small_stats.with_popularity(np.array([1.0]))

    # Models 1 and 2 are model 4 with one category per node: a node's
    # whole stored popularity is in its category, so its weight there is
    # its units.  A category's weight is then its contributors' summed
    # units (Section 4.3.1), and their count at unit capacity (Section
    # 4.1) — equal up to the rounding of ``units * p_k(s) / p(D(k))``.

    @settings(max_examples=40, deadline=None)
    @given(one_category_per_node(capacity_range=(1, 1)))
    def test_contributor_counts(self, config):
        instance = build_system(config)
        expected = [len(units) for units in _contributor_units(instance)]
        weights = build_category_stats(instance).storage_weight
        assert weights.tolist() == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(one_category_per_node())
    def test_capacity_units_sum(self, config):
        instance = build_system(config)
        expected = [sum(units) for units in _contributor_units(instance)]
        weights = build_category_stats(instance).storage_weight
        assert weights.tolist() == pytest.approx(expected, rel=1e-12)


class TestHandComputedModels:
    """Pin the Section 4.3.3 formula, and the Section 4.1 / 4.3.1 formulas
    it reduces to, on hand-checkable instances."""

    def _one_category_per_node(self, units):
        # Three nodes, each contributing to one category: nodes 0 and 1 to
        # category 0 (popularity 0.4 + 0.2), node 2 to category 1 (0.4).
        return _tiny_instance(
            doc_specs=[(0.4, [0], 0), (0.2, [0], 1), (0.4, [1], 2)],
            node_specs=list(enumerate(units)),
            n_categories=2,
            n_clusters=2,
        )

    def test_uniform_nodes_model(self):
        # Identical peers: p(S_i) / |N_i|.
        instance = self._one_category_per_node([1.0, 1.0, 1.0])
        values = normalized_cluster_popularities(instance, np.array([0, 1]))
        assert values[0] == pytest.approx(0.6 / 2)
        assert values[1] == pytest.approx(0.4 / 1)

    def test_proc_capacity_model(self):
        # Heterogeneous processing: p(S_i) / U_i.
        instance = self._one_category_per_node([2.0, 3.0, 4.0])
        values = normalized_cluster_popularities(instance, np.array([0, 1]))
        assert values[0] == pytest.approx(0.6 / (2.0 + 3.0))
        assert values[1] == pytest.approx(0.4 / 4.0)

    def _instance(self):
        # Two categories, two nodes: node 0 (2 units) contributes docs of
        # category 0 only (popularity 0.6); node 1 (4 units) contributes to
        # both (0.1 in category 0, 0.3 in category 1).
        return _tiny_instance(
            doc_specs=[
                (0.6, [0], 0),
                (0.1, [0], 1),
                (0.3, [1], 1),
            ],
            node_specs=[(0, 2.0), (1, 4.0)],
            n_categories=2,
            n_clusters=2,
        )

    def test_limited_storage_model(self):
        instance = self._instance()
        mapping = np.array([0, 1])
        values = normalized_cluster_popularities(instance, mapping)
        # Node 0: stores only category-0 docs -> all 2 units to cluster 0.
        # Node 1: stored popularity 0.1 (cat 0) + 0.3 (cat 1) = 0.4 ->
        # 4 * 0.1/0.4 = 1 unit to cluster 0, 4 * 0.3/0.4 = 3 to cluster 1.
        assert values[0] == pytest.approx(0.7 / (2.0 + 1.0))
        assert values[1] == pytest.approx(0.3 / 3.0)

    def test_same_cluster_collapses_models(self):
        # With every category in one cluster the capacity is the total
        # units, as under Section 4.3.1: storage weights split node 1's
        # units across its categories, so they do not double count:
        # 2 + (1 + 3) = 6.
        instance = self._instance()
        values = normalized_cluster_popularities(instance, np.array([0, 0]))
        assert values[0] == pytest.approx(1.0 / 6.0)


class TestNormalizedPopularities:
    def test_unassigned_categories_ignored(self, small_instance, small_stats):
        mapping = np.full(len(small_instance.categories), -1)
        values = normalized_cluster_popularities(
            small_instance, mapping, stats=small_stats
        )
        assert np.allclose(values, 0.0)

    def test_rejects_out_of_range_cluster(self, small_instance):
        mapping = np.zeros(len(small_instance.categories), dtype=int)
        mapping[0] = small_instance.n_clusters
        with pytest.raises(ValueError):
            normalized_cluster_popularities(small_instance, mapping)

    def test_cluster_members_union(self, small_instance, small_assignment):
        members = cluster_members(
            small_instance, small_assignment.category_to_cluster
        )
        covered = set().union(*members) if members else set()
        assert covered == set(small_instance.node_categories)

    def test_cluster_members_respects_assignment(
        self, small_instance, small_assignment
    ):
        members = cluster_members(
            small_instance, small_assignment.category_to_cluster
        )
        for node_id, cats in small_instance.node_categories.items():
            for category_id in cats:
                cluster = small_assignment.cluster_of(category_id)
                assert node_id in members[cluster]
