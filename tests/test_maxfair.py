"""Tests for repro.core.maxfair."""

import numpy as np
import pytest

from repro.core.fairness import jain_fairness
from repro.core.maxfair import (
    Assignment,
    achieved_fairness,
    category_order,
    maxfair,
    maxfair_from_stats,
)
from repro.core.popularity import CategoryStats, build_category_stats


def _stats(popularity, weights=None):
    popularity = np.asarray(popularity, dtype=float)
    if weights is None:
        weights = np.ones_like(popularity)
    weights = np.asarray(weights, dtype=float)
    return CategoryStats(popularity=popularity, storage_weight=weights)


class TestAssignment:
    def test_complete_detection(self):
        a = Assignment(category_to_cluster=np.array([0, 1, -1]), n_clusters=2)
        assert not a.is_complete()
        a.category_to_cluster[2] = 0
        assert a.is_complete()

    def test_cluster_of_unassigned_raises(self):
        a = Assignment(category_to_cluster=np.array([-1]), n_clusters=2)
        with pytest.raises(KeyError):
            a.cluster_of(0)

    def test_categories_in(self):
        a = Assignment(category_to_cluster=np.array([0, 1, 0]), n_clusters=2)
        assert a.categories_in(0) == [0, 2]
        assert a.categories_in(1) == [1]

    def test_move_bumps_counter(self):
        a = Assignment(category_to_cluster=np.array([0, 1]), n_clusters=3)
        a.move(0, 2)
        assert a.cluster_of(0) == 2
        assert a.move_counters[0] == 1
        assert a.move_counters[1] == 0

    def test_move_out_of_range_rejected(self):
        a = Assignment(category_to_cluster=np.array([0]), n_clusters=2)
        with pytest.raises(ValueError):
            a.move(0, 5)

    def test_copy_is_independent(self):
        a = Assignment(category_to_cluster=np.array([0, 1]), n_clusters=2)
        b = a.copy()
        b.move(0, 1)
        assert a.cluster_of(0) == 0
        assert a.move_counters[0] == 0

    def test_rejects_invalid_cluster_reference(self):
        with pytest.raises(ValueError):
            Assignment(category_to_cluster=np.array([5]), n_clusters=2)

    def test_rejects_nonpositive_clusters(self):
        with pytest.raises(ValueError):
            Assignment(category_to_cluster=np.array([0]), n_clusters=0)


class TestCategoryOrder:
    def test_popularity_desc(self):
        order = category_order(np.array([0.1, 0.5, 0.3]), "popularity_desc")
        assert order.tolist() == [1, 2, 0]

    def test_popularity_asc(self):
        order = category_order(np.array([0.1, 0.5, 0.3]), "popularity_asc")
        assert order.tolist() == [0, 2, 1]

    def test_arbitrary(self):
        order = category_order(np.array([0.1, 0.5]), "arbitrary")
        assert order.tolist() == [0, 1]

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            category_order(np.array([1.0]), "sideways")


class TestMaxFairSmall:
    def test_two_equal_categories_two_clusters(self):
        stats = _stats([0.5, 0.5])
        assignment = maxfair_from_stats(stats, n_clusters=2)
        assert assignment.is_complete()
        # Perfect balance: the two categories land in different clusters.
        assert assignment.cluster_of(0) != assignment.cluster_of(1)

    def test_perfect_normalized_balance_found(self):
        # Note the objective is *normalized* popularity (load divided by
        # the capacity the categories bring along), not raw load: with unit
        # weights, [0.4, 0.2, 0.1] on one cluster (0.7 / 3 units) vs [0.3]
        # (0.3 / 1 unit) is less fair than what the greedy finds.
        stats = _stats([0.4, 0.3, 0.2, 0.1])
        assignment = maxfair_from_stats(stats, n_clusters=2)
        load = np.zeros(2)
        weight = np.zeros(2)
        for s, c in enumerate(assignment.category_to_cluster):
            load[c] += stats.popularity[s]
            weight[c] += 1.0
        values = load / weight
        assert jain_fairness(values) > 0.98

    def test_zero_popularity_goes_to_cluster_zero(self):
        stats = _stats([0.0, 1.0, 0.0])
        assignment = maxfair_from_stats(stats, n_clusters=3)
        assert assignment.cluster_of(0) == 0
        assert assignment.cluster_of(2) == 0

    def test_weights_matter(self):
        # One heavy category with proportionally heavy capacity and two
        # light ones: every arrangement that keeps per-unit load at 0.1 is
        # perfectly fair; the greedy must find one of them.
        stats = _stats([0.8, 0.1, 0.1], weights=[8.0, 1.0, 1.0])
        assignment = maxfair_from_stats(stats, n_clusters=2)
        load = np.zeros(2)
        weight = np.zeros(2)
        for s, c in enumerate(assignment.category_to_cluster):
            load[c] += stats.popularity[s]
            weight[c] += [8.0, 1.0, 1.0][s]
        values = np.divide(load, weight, out=np.zeros(2), where=weight > 0)
        occupied = values[weight > 0]
        assert jain_fairness(occupied) == pytest.approx(1.0)

    def test_single_cluster(self):
        stats = _stats([0.5, 0.5])
        assignment = maxfair_from_stats(stats, n_clusters=1)
        assert assignment.is_complete()
        assert set(assignment.category_to_cluster.tolist()) == {0}


class TestMaxFairIncrementalCorrectness:
    def test_matches_naive_reference(self):
        """The O(1) incremental Jain evaluation must reproduce the naive
        full-vector re-evaluation argmax exactly."""
        rng = np.random.default_rng(9)
        for trial in range(5):
            n_categories, n_clusters = 20, 4
            popularity = rng.random(n_categories)
            weights = rng.random(n_categories) + 0.1
            stats = _stats(popularity, weights)

            fast = maxfair_from_stats(stats, n_clusters=n_clusters)

            # Naive reference implementation.
            order = np.argsort(-popularity, kind="stable")
            load = np.zeros(n_clusters)
            capacity = np.zeros(n_clusters)
            mapping = np.full(n_categories, -1)
            for s in order:
                best, best_f = 0, -1.0
                for c in range(n_clusters):
                    load[c] += popularity[s]
                    capacity[c] += weights[s]
                    values = np.divide(
                        load, capacity, out=np.zeros(n_clusters),
                        where=capacity > 0,
                    )
                    f = jain_fairness(values)
                    load[c] -= popularity[s]
                    capacity[c] -= weights[s]
                    if f > best_f:
                        best, best_f = c, f
                load[best] += popularity[s]
                capacity[best] += weights[s]
                mapping[s] = best
            assert fast.category_to_cluster.tolist() == mapping.tolist(), (
                f"trial {trial}"
            )


class TestMaxFairOnInstances:
    def test_high_fairness_on_small_instance(self, small_instance, small_stats):
        assignment = maxfair(small_instance, stats=small_stats)
        fairness = achieved_fairness(small_instance, assignment, stats=small_stats)
        assert fairness > 0.95

    def test_all_categories_assigned(self, small_assignment, small_instance):
        assert small_assignment.is_complete()
        assert len(small_assignment.category_to_cluster) == len(
            small_instance.categories
        )

    def test_deterministic(self, small_instance, small_stats):
        a = maxfair(small_instance, stats=small_stats)
        b = maxfair(small_instance, stats=small_stats)
        assert a.category_to_cluster.tolist() == b.category_to_cluster.tolist()

    def test_beats_random_assignment(self, small_instance, small_stats):
        from repro.core.baselines import random_assignment

        greedy = maxfair(small_instance, stats=small_stats)
        random = random_assignment(
            len(small_instance.categories), small_instance.n_clusters, seed=0
        )
        assert achieved_fairness(
            small_instance, greedy, stats=small_stats
        ) >= achieved_fairness(small_instance, random, stats=small_stats)

    def test_order_variants_complete(self, small_instance, small_stats):
        for order in ("popularity_desc", "popularity_asc", "arbitrary"):
            assignment = maxfair(small_instance, stats=small_stats, order=order)
            assert assignment.is_complete()
