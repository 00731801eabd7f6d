"""Tests for repro.core.partition — the ICLB formalization."""

import numpy as np
import pytest

from repro.core.fairness import jain_fairness
from repro.core.maxfair import maxfair_from_stats
from repro.core.partition import (
    ICLBInstance,
    balanced_partition_decision,
    best_assignment_exhaustive,
    iclb_decision,
    partition_decision,
    partition_to_iclb,
)
from repro.core.popularity import CategoryStats


class TestICLBInstance:
    def test_normalized_popularities(self):
        instance = ICLBInstance(
            category_popularity=(0.6, 0.4), category_nodes=(2, 1), k=2
        )
        values = instance.normalized_popularities((0, 1))
        assert values[0] == pytest.approx(0.3)
        assert values[1] == pytest.approx(0.4)

    def test_rejects_mismatched_vectors(self):
        with pytest.raises(ValueError):
            ICLBInstance(category_popularity=(0.5,), category_nodes=(1, 1), k=2)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            ICLBInstance(category_popularity=(0.5,), category_nodes=(0,), k=2)

    def test_rejects_bad_assignment(self):
        instance = ICLBInstance(
            category_popularity=(0.5,), category_nodes=(1,), k=2
        )
        with pytest.raises(ValueError):
            instance.normalized_popularities((5,))


class TestDecision:
    def test_yes_instance(self):
        # Categories {3, 1, 2, 2} over one node each: {3,1} vs {2,2} works.
        instance = ICLBInstance(
            category_popularity=(3.0, 1.0, 2.0, 2.0),
            category_nodes=(1, 1, 1, 1),
            k=2,
        )
        assert iclb_decision(instance)

    def test_no_instance(self):
        instance = ICLBInstance(
            category_popularity=(3.0, 1.0, 1.0),
            category_nodes=(1, 1, 1),
            k=2,
        )
        assert not iclb_decision(instance)

    def test_node_counts_matter(self):
        # Same popularities, but node counts make a perfect split possible:
        # p/n of 4/2 equals 2/1.
        instance = ICLBInstance(
            category_popularity=(4.0, 2.0), category_nodes=(2, 1), k=2
        )
        assert iclb_decision(instance)


class TestExhaustiveOracle:
    def test_best_assignment_is_optimal(self):
        instance = ICLBInstance(
            category_popularity=(0.4, 0.3, 0.2, 0.1),
            category_nodes=(1, 1, 1, 1),
            k=2,
        )
        _assignment, best = best_assignment_exhaustive(instance)
        assert best == pytest.approx(1.0)

    def test_maxfair_near_oracle_on_small_instances(self):
        """MaxFair is greedy and incomplete (the paper says so): it must
        never beat the exhaustive optimum and should land within a small
        gap of it on tiny instances."""
        rng = np.random.default_rng(17)
        for _ in range(15):
            popularity = rng.integers(1, 10, size=6).astype(float)
            instance = ICLBInstance(
                category_popularity=tuple(popularity),
                category_nodes=tuple([1] * 6),
                k=3,
            )
            _, optimal = best_assignment_exhaustive(instance)
            stats = CategoryStats(popularity=popularity, storage_weight=np.ones(6))
            assignment = maxfair_from_stats(stats, n_clusters=3)
            greedy = jain_fairness(
                instance.normalized_popularities(
                    tuple(int(c) for c in assignment.category_to_cluster)
                )
            )
            assert greedy <= optimal + 1e-9
            assert greedy >= optimal - 0.05


class TestPartitionReduction:
    def test_reduction_shape(self):
        instance = partition_to_iclb([3, 1, 1, 3])
        assert instance.k == 2
        assert instance.category_nodes == (1, 1, 1, 1)

    def test_reduction_preserves_yes(self):
        weights = [3, 1, 1, 3]  # balanced partition {3,1} / {1,3}
        assert partition_decision(weights)
        assert iclb_decision(partition_to_iclb(weights))

    def test_reduction_preserves_no(self):
        weights = [3, 1, 1]  # total 5, odd -> no
        assert not partition_decision(weights)
        assert not iclb_decision(partition_to_iclb(weights))

    def test_reduction_agreement_randomized(self):
        # For equal-cardinality-feasible instances the ICLB answer equals
        # the BALANCED PARTITION answer (the paper's reduction source).
        rng = np.random.default_rng(23)
        for _ in range(20):
            weights = [int(w) for w in rng.integers(1, 8, size=6)]
            balanced = balanced_partition_decision(weights)
            # BALANCED PARTITION = ICLB with the equal-|N_i| requirement.
            # Our ICLB constraint 2 alone can be satisfiable more often
            # (unequal cardinality with equal p/|N| is impossible here
            # since every category has exactly 1 node and equal normalized
            # popularity with different counts requires different sums).
            if balanced:
                assert iclb_decision(partition_to_iclb(weights))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            partition_to_iclb([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            partition_to_iclb([-1])


class TestPartitionDP:
    def test_classic_yes(self):
        assert partition_decision([1, 5, 11, 5])

    def test_classic_no(self):
        assert not partition_decision([1, 2, 5])

    def test_balanced_requires_even_count(self):
        assert not balanced_partition_decision([2, 1, 1])
        assert balanced_partition_decision([2, 2, 1, 1])

    def test_balanced_no_when_sums_cannot_match(self):
        assert not balanced_partition_decision([10, 1, 1, 1])
