"""Property-based tests on replica placement and the Chord ring."""

import heapq
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.chord import ChordNetwork
from repro.core.maxfair import maxfair
from repro.core.popularity import cluster_members
from repro.core.replication import (
    POLICIES,
    ReplicationPlan,
    _replica_counts,
    plan_replication,
)
from repro.model.system import SystemConfig, build_system
from repro.model.zipf import top_mass_count

MB = 1024 * 1024

tiny_worlds = st.tuples(
    st.integers(min_value=40, max_value=200),   # docs
    st.integers(min_value=10, max_value=40),    # nodes
    st.integers(min_value=2, max_value=8),      # categories
    st.integers(min_value=1, max_value=4),      # clusters
    st.integers(min_value=0, max_value=10_000), # seed
)


class TestReplicationProperties:
    @settings(max_examples=15, deadline=None)
    @given(tiny_worlds, st.integers(min_value=1, max_value=3))
    def test_every_document_gets_min_replicas(self, world, n_reps):
        n_docs, n_nodes, n_categories, n_clusters, seed = world
        instance = build_system(
            SystemConfig(
                n_docs=n_docs,
                n_nodes=n_nodes,
                n_categories=n_categories,
                n_clusters=n_clusters,
                seed=seed,
            )
        )
        assignment = maxfair(instance)
        plan = plan_replication(instance, assignment, n_reps=n_reps, hot_mass=0.35)
        members = cluster_members(instance, assignment.category_to_cluster)
        holders: dict[int, int] = {}
        for docs in plan.node_docs.values():
            for doc_id in docs:
                holders[doc_id] = holders.get(doc_id, 0) + 1
        for doc_id, doc in instance.documents.items():
            cluster = assignment.cluster_of(doc.categories[0])
            expected = min(n_reps, len(members[cluster]))
            assert holders.get(doc_id, 0) >= expected

    @settings(max_examples=10, deadline=None)
    @given(tiny_worlds)
    def test_byte_accounting_always_consistent(self, world):
        n_docs, n_nodes, n_categories, n_clusters, seed = world
        instance = build_system(
            SystemConfig(
                n_docs=n_docs,
                n_nodes=n_nodes,
                n_categories=n_categories,
                n_clusters=n_clusters,
                seed=seed,
            )
        )
        assignment = maxfair(instance)
        plan = plan_replication(instance, assignment, n_reps=2, hot_mass=0.2)
        sizes = {d.doc_id: d.size_bytes for d in instance.documents.values()}
        for node_id, docs in plan.node_docs.items():
            assert plan.node_bytes[node_id] == sum(sizes[d] for d in docs)


def reference_plan(
    instance, assignment, n_reps, hot_mass, policy, exclude_free_riders
):
    """Section 4.3.3 placement one (document, node) pair at a time.

    The algorithm ``plan_replication`` ran before it placed hot copies in
    bulk, kept as the oracle: the plan must match it down to dict and set
    iteration order, which ``P2PSystem._bootstrap`` turns into
    ``peer.docs`` order and so into every later RNG pick.
    """
    plan = ReplicationPlan()
    clusters = cluster_members(instance, assignment.category_to_cluster)
    for cluster_id in range(assignment.n_clusters):
        members = sorted(clusters[cluster_id]) if cluster_id < len(clusters) else []
        if exclude_free_riders:
            members = [n for n in members if not instance.nodes[n].is_free_rider]
        if not members:
            continue

        def cluster_pop(node_id):
            return plan.node_cluster_popularity.get((node_id, cluster_id), 0.0)

        def store(node_id, doc):
            docs_here = plan.node_docs.setdefault(node_id, set())
            if doc.doc_id in docs_here:
                return True
            used = plan.node_bytes.get(node_id, 0)
            budget = instance.nodes[node_id].storage_bytes
            if budget is not None and used + doc.size_bytes > budget:
                return False
            docs_here.add(doc.doc_id)
            plan.node_popularity[node_id] = (
                plan.node_popularity.get(node_id, 0.0) + doc.popularity
            )
            plan.node_bytes[node_id] = used + doc.size_bytes
            plan.node_cluster_popularity[node_id, cluster_id] = (
                cluster_pop(node_id) + doc.popularity
            )
            return True

        for category_id in assignment.categories_in(cluster_id):
            docs = sorted(
                (instance.documents[d] for d in instance.categories[category_id].doc_ids),
                key=lambda doc: -doc.popularity,
            )
            if not docs:
                continue
            popularity = np.array([doc.popularity for doc in docs])
            if policy == "hot_mass":
                n_hot = top_mass_count(popularity, hot_mass) if hot_mass > 0 else 0
                counts = np.full(len(docs), n_reps)
            else:
                n_hot = 0
                counts = _replica_counts(policy, popularity, n_reps, len(members))
            heap = [(cluster_pop(node_id), node_id) for node_id in members]
            heapq.heapify(heap)
            for position in range(n_hot, len(docs)):
                taken, placed = [], 0
                for _ in members:
                    if placed >= min(int(counts[position]), len(members)):
                        break
                    node_id = heapq.heappop(heap)[1]
                    placed += store(node_id, docs[position])
                    taken.append(node_id)
                for node_id in taken:
                    heapq.heappush(heap, (cluster_pop(node_id), node_id))
            for doc in docs[:n_hot]:
                plan.hot_doc_ids.add(doc.doc_id)
                for node_id in members:
                    store(node_id, doc)
    return plan


def ordered(plan):
    """The plan as lists, so that equality includes iteration order, and
    with floats as hex strings, so that it means bit-equal Python floats."""

    def bits(mapping):
        assert all(type(value) is float for value in mapping.values())
        return [(key, value.hex()) for key, value in mapping.items()]

    return (
        [(node_id, list(docs)) for node_id, docs in plan.node_docs.items()],
        bits(plan.node_popularity),
        list(plan.node_bytes.items()),
        bits(plan.node_cluster_popularity),
        list(plan.hot_doc_ids),
    )


oracle_worlds = st.fixed_dictionaries(
    {
        "n_docs": st.integers(min_value=30, max_value=200),
        # A handful of nodes with one category each makes clusters of one
        # or two members, fewer than ``n_reps``.
        "n_nodes": st.one_of(
            st.integers(min_value=2, max_value=6),
            st.integers(min_value=7, max_value=40),
        ),
        "n_categories": st.integers(min_value=2, max_value=8),
        "n_clusters": st.integers(min_value=1, max_value=4),
        "categories_per_node": st.sampled_from([(1, 1), (1, 3), (1, 20)]),
        "multi_category_fraction": st.sampled_from([0.0, 0.3, 0.8]),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)
#: Dealt round-robin: node ``i`` offers ``budgets[i % len] MB`` (None: no
#: limit), document ``j`` takes ``sizes[j % len] MB``.  With documents of
#: 1-4 MB and some twenty to a hundred copies wanted per node, 0-60 MB
#: leaves members full before the hot stage, part-way through it, or never.
node_budgets = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=60)),
    min_size=1,
    max_size=8,
)
doc_sizes = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4)


oracle_arguments = (
    oracle_worlds,
    node_budgets,
    doc_sizes,
    st.integers(min_value=1, max_value=4),       # n_reps
    st.sampled_from([0.0, 0.2, 0.35, 0.7]),      # hot_mass
    st.sampled_from([0, 2, 3]),                  # every k-th node rides free
)


def assert_plan_equals_oracle(
    policy, world, budgets, sizes, n_reps, hot_mass, free_rider_stride
):
    instance = build_system(SystemConfig(**world))
    assignment = maxfair(instance)
    for doc_id, doc in instance.documents.items():
        instance.documents[doc_id] = replace(
            doc, size_bytes=sizes[doc_id % len(sizes)] * MB
        )
    for node_id, node in instance.nodes.items():
        budget = budgets[node_id % len(budgets)]
        node.storage_bytes = None if budget is None else budget * MB
        # Still a cluster member (``node_categories`` is untouched), but
        # one that ``exclude_free_riders`` must skip.
        if free_rider_stride and node_id % free_rider_stride == 0:
            node.contributed_doc_ids = []
    arguments = (n_reps, hot_mass, policy, free_rider_stride > 0)
    plan = plan_replication(instance, assignment, *arguments)
    assert ordered(plan) == ordered(reference_plan(instance, assignment, *arguments))


class TestPlanMatchesThePerPairOracle:
    """Equal as ordered lists, bit-equal floats included."""

    @settings(max_examples=150, deadline=None)
    @given(*oracle_arguments)
    def test_paper_policy_with_its_hot_stage(
        self, world, budgets, sizes, n_reps, hot_mass, free_rider_stride
    ):
        assert_plan_equals_oracle(
            "hot_mass", world, budgets, sizes, n_reps, hot_mass, free_rider_stride
        )

    @pytest.mark.parametrize("policy", POLICIES[1:])
    @settings(max_examples=30, deadline=None)
    @given(*oracle_arguments)
    def test_alternative_policies(
        self, policy, world, budgets, sizes, n_reps, hot_mass, free_rider_stride
    ):
        assert_plan_equals_oracle(
            policy, world, budgets, sizes, n_reps, hot_mass, free_rider_stride
        )


class TestChordProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=2, max_value=100),   # nodes
        st.integers(min_value=0, max_value=5000),  # doc id
        st.integers(min_value=0, max_value=99),    # start index
    )
    def test_lookup_always_reaches_the_stored_holder(self, n_nodes, doc_id, start):
        network = ChordNetwork(range(n_nodes), bits=20)
        stored_at = network.store(doc_id)
        holder, hops = network.lookup(start % n_nodes, doc_id)
        assert holder == stored_at
        assert doc_id in network.nodes[holder].keys
        assert 0 <= hops <= 4 * network.bits
