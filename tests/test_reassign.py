"""Tests for repro.core.reassign — MaxFair_Reassign."""

import numpy as np
import pytest

from repro.core.maxfair import Assignment, maxfair
from repro.core.popularity import CategoryStats, build_category_stats
from repro.core.reassign import maxfair_reassign, maxfair_reassign_from_stats
from repro.model.workload import add_hot_documents, zipf_category_scenario


def _stats(popularity, weights=None):
    popularity = np.asarray(popularity, dtype=float)
    if weights is None:
        weights = np.ones_like(popularity)
    weights = np.asarray(weights, dtype=float)
    return CategoryStats(popularity=popularity, storage_weight=weights)


class TestReassignBasics:
    def test_balanced_input_makes_no_moves(self):
        stats = _stats([0.5, 0.5])
        assignment = Assignment(
            category_to_cluster=np.array([0, 1]), n_clusters=2
        )
        result = maxfair_reassign_from_stats(stats, assignment)
        assert result.n_moves == 0
        assert result.converged
        assert result.fairness_trace == [pytest.approx(1.0)]

    def test_fixes_obvious_imbalance(self):
        # Everything piled in cluster 0; two equal categories should split.
        stats = _stats([0.5, 0.5])
        assignment = Assignment(
            category_to_cluster=np.array([0, 0]), n_clusters=2
        )
        result = maxfair_reassign_from_stats(stats, assignment)
        assert result.n_moves == 1
        assert result.converged
        assert result.final_fairness == pytest.approx(1.0)
        loads = [0.0, 0.0]
        for s, c in enumerate(result.assignment.category_to_cluster):
            loads[c] += stats.popularity[s]
        assert loads[0] == pytest.approx(loads[1])

    def test_does_not_mutate_input(self):
        stats = _stats([0.5, 0.5])
        assignment = Assignment(
            category_to_cluster=np.array([0, 0]), n_clusters=2
        )
        maxfair_reassign_from_stats(stats, assignment)
        assert assignment.category_to_cluster.tolist() == [0, 0]
        assert assignment.move_counters.tolist() == [0, 0]

    def test_move_counters_bumped(self):
        stats = _stats([0.5, 0.5])
        assignment = Assignment(
            category_to_cluster=np.array([0, 0]), n_clusters=2
        )
        result = maxfair_reassign_from_stats(stats, assignment)
        moved = result.moves[0].category_id
        assert result.assignment.move_counters[moved] == 1

    def test_respects_max_moves(self):
        rng = np.random.default_rng(3)
        stats = _stats(rng.random(20))
        assignment = Assignment(
            category_to_cluster=np.zeros(20, dtype=int), n_clusters=5
        )
        result = maxfair_reassign_from_stats(stats, assignment, max_moves=2)
        assert result.n_moves <= 2

    def test_monotone_fairness_trace(self):
        rng = np.random.default_rng(4)
        stats = _stats(rng.random(30))
        assignment = Assignment(
            category_to_cluster=rng.integers(0, 2, size=30), n_clusters=6
        )
        result = maxfair_reassign_from_stats(stats, assignment, max_moves=40)
        trace = result.fairness_trace
        assert all(b > a for a, b in zip(trace, trace[1:]))

    def test_requires_complete_assignment(self):
        stats = _stats([0.5, 0.5])
        assignment = Assignment(
            category_to_cluster=np.array([0, -1]), n_clusters=2
        )
        with pytest.raises(ValueError):
            maxfair_reassign_from_stats(stats, assignment)

    def test_rejects_bad_threshold(self):
        stats = _stats([0.5, 0.5])
        assignment = Assignment(
            category_to_cluster=np.array([0, 1]), n_clusters=2
        )
        with pytest.raises(ValueError):
            maxfair_reassign_from_stats(stats, assignment, fairness_threshold=0.0)
        with pytest.raises(ValueError):
            maxfair_reassign_from_stats(stats, assignment, max_moves=-1)

    def test_moves_record_source_and_target(self):
        stats = _stats([0.5, 0.5])
        assignment = Assignment(
            category_to_cluster=np.array([0, 0]), n_clusters=2
        )
        result = maxfair_reassign_from_stats(stats, assignment)
        move = result.moves[0]
        assert move.source_cluster == 0
        assert move.target_cluster == 1
        assert move.fairness_after == pytest.approx(1.0)


class TestReassignPaperScenario:
    """The Figure 5 shape at reduced scale."""

    def test_recovers_after_perturbation(self):
        instance = zipf_category_scenario(
            scale=0.1, seed=11, doc_theta=0.8, category_theta=0.8
        )
        stats = build_category_stats(instance)
        assignment = maxfair(instance, stats=stats)
        add_hot_documents(
            instance, seed=5, category_subset_fraction=0.1, new_doc_theta=0.8
        )
        new_stats = build_category_stats(instance)
        hybrid = stats.with_popularity(new_stats.popularity)
        result = maxfair_reassign_from_stats(
            hybrid, assignment, fairness_threshold=0.92, max_moves=30
        )
        assert result.converged
        assert result.final_fairness >= 0.92
        # "only a very small number of categories need be moved"
        assert result.n_moves <= 15

    def test_instance_level_entry_point(self):
        instance = zipf_category_scenario(scale=0.05, seed=13)
        assignment = maxfair(instance)
        result = maxfair_reassign(instance, assignment, fairness_threshold=0.9)
        assert result.final_fairness >= result.initial_fairness
