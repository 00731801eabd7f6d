"""Free-rider wiring: placement exclusion, capacity accounting, fairness."""

import numpy as np
import pytest

from repro.chaos import Interpreter, InvariantChecker, ScenarioConfig
from repro.core.fairness import jain_fairness
from repro.core.maxfair import maxfair
from repro.core.popularity import build_category_stats
from repro.core.replication import plan_replication
from repro.model.system import SystemConfig, build_system
from repro.overlay.system import P2PSystem
from repro.scenario import designate_free_riders, generate_events, ScenarioSpec

WORLD = SystemConfig(
    seed=23,
    n_docs=160,
    n_nodes=12,
    n_categories=12,
    n_clusters=4,
    doc_size_bytes=65_536,
)


def build_free_rider_world(fraction=0.25, seed=23):
    instance = build_system(WORLD)
    free = designate_free_riders(instance, fraction, seed=seed)
    stats = build_category_stats(instance)
    assignment = maxfair(instance, stats=stats)
    return instance, assignment, free


def contributing_capacity(system):
    """Total capacity of the live peers that are not free riders."""
    return sum(
        peer.capacity_units
        for peer in system.alive_peers()
        if not system.is_free_rider(peer.node_id)
    )


def play_stationary_scenario(system):
    """Issue a stationary scenario's queries at their scheduled times."""
    spec = ScenarioSpec(name="fair", seed=23, duration=5.0, base_rate=80.0)
    schedule = generate_events(spec, system.instance)
    interpreter = Interpreter(
        system, ScenarioConfig(), InvariantChecker(system), False
    )
    interpreter.play(schedule.entries, 0.0)


class TestPlanExclusion:
    def test_plan_skips_free_riders_when_asked(self):
        instance, assignment, free = build_free_rider_world()
        plan = plan_replication(
            instance, assignment, n_reps=2, hot_mass=0.35,
            exclude_free_riders=True,
        )
        placed_on = {
            node_id for node_id, docs in plan.node_docs.items() if docs
        }
        assert placed_on, "plan placed nothing"
        assert not placed_on & set(free)

    def test_default_plan_behavior_unchanged(self):
        # Off by default: generated worlds contain contribution-less
        # capacity providers that *should* receive replicas.
        instance = build_system(WORLD)
        stats = build_category_stats(instance)
        assignment = maxfair(instance, stats=stats)
        default_plan = plan_replication(instance, assignment, n_reps=2)
        other = build_system(WORLD)
        other_stats = build_category_stats(other)
        fresh = plan_replication(
            other, maxfair(other, stats=other_stats), n_reps=2
        )
        assert default_plan.node_docs == fresh.node_docs


class TestSystemTracking:
    def test_designated_nodes_tracked_by_system(self):
        instance, assignment, free = build_free_rider_world()
        system = P2PSystem(instance, assignment)
        for node_id in free:
            assert system.is_free_rider(node_id)

    def test_empty_handed_joiner_becomes_free_rider(self):
        instance, assignment, _ = build_free_rider_world(fraction=0.0)
        system = P2PSystem(instance, assignment)
        node_id = max(system.all_node_ids()) + 1
        system.join_node(node_id, 2.0, doc_infos=[])
        assert system.is_free_rider(node_id)

    def test_contributing_joiner_is_not_free_rider(self):
        from repro.overlay.peer import DocInfo

        instance, assignment, _ = build_free_rider_world(fraction=0.0)
        system = P2PSystem(instance, assignment)
        node_id = max(system.all_node_ids()) + 1
        doc = DocInfo(
            doc_id=max(instance.documents) + 1,
            categories=(0,),
            size_bytes=65_536,
        )
        capacity = contributing_capacity(system)
        system.join_node(node_id, 2.0, doc_infos=[doc])
        assert not system.is_free_rider(node_id)
        # A joiner is not in ``instance.nodes``; its capacity is the peer's.
        assert contributing_capacity(system) == pytest.approx(capacity + 2.0)


class TestFairnessRegression:
    def test_contributor_fairness_stays_high_with_free_riders(self):
        # Free riders issue queries but never serve; the serving work
        # must still spread evenly across the contributors.
        instance, assignment, free = build_free_rider_world()
        plan = plan_replication(
            instance, assignment, n_reps=2, exclude_free_riders=True
        )
        system = P2PSystem(instance, assignment, plan=plan)
        play_stationary_scenario(system)
        contributors = [
            peer
            for peer in system.alive_peers()
            if not system.is_free_rider(peer.node_id)
        ]
        served = [peer.requests_served for peer in contributors]
        assert sum(served) > 0
        fairness = jain_fairness(served)
        assert fairness > 0.5, f"contributor fairness collapsed: {fairness}"

    def test_free_riders_serve_nothing(self):
        instance, assignment, free = build_free_rider_world()
        plan = plan_replication(
            instance, assignment, n_reps=2, exclude_free_riders=True
        )
        system = P2PSystem(instance, assignment, plan=plan)
        play_stationary_scenario(system)
        for node_id in free:
            peer = system.peer(node_id)
            # A designated free rider holds no replicas, so it can serve
            # no documents (it may still forward queries).
            assert peer.requests_served == 0
