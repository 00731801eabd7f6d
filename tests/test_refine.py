"""Tests for local-search refinement (future-work item i)."""

import numpy as np
import pytest

from repro.core import refine
from repro.core.fairness import JainState, jain_fairness
from repro.core.maxfair import Assignment, achieved_fairness, maxfair, maxfair_from_stats
from repro.core.partition import ICLBInstance, best_assignment_exhaustive
from repro.core.popularity import CategoryStats
from repro.core.refine import refine_assignment


def _stats(popularity, weights=None):
    popularity = np.asarray(popularity, dtype=float)
    if weights is None:
        weights = np.ones_like(popularity)
    weights = np.asarray(weights, dtype=float)
    return CategoryStats(popularity=popularity, storage_weight=weights)


class TestRefineBasics:
    def test_never_decreases_fairness(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            stats = _stats(rng.random(15))
            assignment = Assignment(
                category_to_cluster=rng.integers(0, 4, size=15), n_clusters=4
            )
            result = refine_assignment(stats, assignment)
            assert result.final_fairness >= result.initial_fairness - 1e-12

    def test_input_not_mutated(self):
        stats = _stats([0.5, 0.5])
        assignment = Assignment(category_to_cluster=np.array([0, 0]), n_clusters=2)
        refine_assignment(stats, assignment)
        assert assignment.category_to_cluster.tolist() == [0, 0]

    def test_fixes_trivial_imbalance(self):
        stats = _stats([0.5, 0.5])
        assignment = Assignment(category_to_cluster=np.array([0, 0]), n_clusters=2)
        result = refine_assignment(stats, assignment)
        assert result.final_fairness == pytest.approx(1.0)
        assert result.moves_applied == 1

    def test_swap_escapes_move_local_optimum(self):
        # Clusters {2, 5} and {1, 4} under unit weights: normalized 3.5 and
        # 2.5.  Every single move leaves one category alone (5 vs 7/3 at
        # best) and lowers the index, but swapping 2 <-> 1 gives 3 and 3.
        stats = _stats([2.0, 5.0, 1.0, 4.0])
        assignment = Assignment(
            category_to_cluster=np.array([0, 0, 1, 1]), n_clusters=2
        )
        state = JainState.of_assignment(stats, assignment)
        for category_id, source in enumerate([0, 0, 1, 1]):
            pop = stats.popularity[category_id]
            assert state.fairness_if(
                (source, -pop, -1.0), (1 - source, pop, 1.0)
            ) < state.fairness()
        result = refine_assignment(stats, assignment)
        assert result.swaps_applied >= 1
        assert result.final_fairness == pytest.approx(1.0)

    def test_move_counters_bumped(self):
        stats = _stats([0.5, 0.5])
        assignment = Assignment(category_to_cluster=np.array([0, 0]), n_clusters=2)
        result = refine_assignment(stats, assignment)
        assert result.assignment.move_counters.sum() >= 1

    def test_requires_complete_assignment(self):
        stats = _stats([0.5])
        assignment = Assignment(category_to_cluster=np.array([-1]), n_clusters=2)
        with pytest.raises(ValueError):
            refine_assignment(stats, assignment)

    def test_round_budget_respected(self, monkeypatch):
        monkeypatch.setattr(refine, "MAX_ROUNDS", 3)
        rng = np.random.default_rng(6)
        stats = _stats(rng.random(20))
        assignment = Assignment(
            category_to_cluster=np.zeros(20, dtype=int), n_clusters=5
        )
        result = refine_assignment(stats, assignment)
        assert result.moves_applied + result.swaps_applied <= 3


class TestRefineQuality:
    def test_closes_gap_to_oracle(self):
        """Greedy + refinement should land within a hair of the exhaustive
        optimum on tiny instances (where plain greedy often leaves a gap —
        see test_partition.py)."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            popularity = rng.integers(1, 10, size=6).astype(float)
            instance = ICLBInstance(
                category_popularity=tuple(popularity),
                category_nodes=tuple([1] * 6),
                k=3,
            )
            _, optimal = best_assignment_exhaustive(instance)
            stats = _stats(popularity)
            greedy = maxfair_from_stats(stats, n_clusters=3)
            refined = refine_assignment(stats, greedy)
            achieved = jain_fairness(
                instance.normalized_popularities(
                    tuple(int(c) for c in refined.assignment.category_to_cluster)
                )
            )
            assert achieved >= optimal - 0.01

    def test_improves_maxfair_on_real_instance(self, small_instance, small_stats):
        greedy = maxfair(small_instance, stats=small_stats)
        before = achieved_fairness(small_instance, greedy, stats=small_stats)
        result = refine_assignment(small_stats, greedy)
        after = achieved_fairness(
            small_instance, result.assignment, stats=small_stats
        )
        assert after >= before - 1e-12
        assert result.final_fairness == pytest.approx(after, abs=1e-9)
