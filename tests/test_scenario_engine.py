"""Engine-layer tests: stationary equivalence, determinism, modulation,
controls — all read off the one compiled schedule."""

import numpy as np
import pytest

from repro.chaos import ScenarioConfig, ScheduleEntry, run_schedule
from repro.model.system import SystemConfig, build_system
from repro.model.workload import make_query_workload
from repro.scenario import (
    DiurnalSpec,
    DriftSpec,
    FreeRiderSpec,
    MisbehaviorSpec,
    RegionalPartitionSpec,
    ScenarioSpec,
    SkewFlipSpec,
    designate_free_riders,
    generate_events,
    rate_at,
)

WORLD = SystemConfig(
    seed=5,
    n_docs=120,
    n_nodes=12,
    n_categories=8,
    n_clusters=3,
    doc_size_bytes=65_536,
)


@pytest.fixture(scope="module")
def instance():
    return build_system(WORLD)


def _queries(schedule):
    return [entry for entry in schedule.entries if entry.action == "query"]


def _times(schedule):
    return [entry.params["t"] for entry in _queries(schedule)]


def _controls(schedule):
    return [entry for entry in schedule.entries if entry.action != "query"]


class TestStationaryEquivalence:
    def test_queries_match_make_query_workload_exactly(self, instance):
        # The acceptance criterion: a stationary spec's query stream is
        # byte-for-byte today's make_query_workload output.
        spec = ScenarioSpec(name="s", seed=42, duration=5.0, base_rate=30.0, m=2)
        schedule = generate_events(spec, instance)
        expected = make_query_workload(instance, spec.n_queries, seed=42, m=2)
        assert [
            (e.step, e.params["requester"], e.params["doc"], e.params["m"])
            for e in _queries(schedule)
        ] == [
            (q.query_id, q.requester_id, q.target_doc_id, q.m)
            for q in expected.queries
        ]

    def test_times_evenly_spaced(self, instance):
        spec = ScenarioSpec(name="s", seed=1, duration=10.0, base_rate=10.0)
        times = _times(generate_events(spec, instance))
        assert len(times) == 100
        assert times[0] == 0.0
        diffs = np.diff(times)
        assert np.allclose(diffs, 0.1)


class TestByteIdentity:
    def test_same_spec_same_bytes(self, instance):
        spec = ScenarioSpec(
            name="mod",
            seed=9,
            duration=6.0,
            base_rate=40.0,
            n_regions=3,
            diurnal=DiurnalSpec(period=3.0, amplitude=0.6,
                                regional_offsets=(0.0, 0.5)),
            drift=DriftSpec(ranks_per_unit=2.0),
            flips=(SkewFlipSpec(at=3.0, mass=0.3, n_hot=3),),
            misbehavior=MisbehaviorSpec(at=2.0, n_bogus=1),
            partitions=(RegionalPartitionSpec(at=1.0, duration=2.0, region=1),),
        )
        first = generate_events(spec, instance)
        second = generate_events(spec, instance)
        assert first == second
        assert first.to_python() == second.to_python()

    def test_different_seed_different_bytes(self, instance):
        base = dict(name="mod", duration=4.0, base_rate=25.0,
                    diurnal=DiurnalSpec(period=2.0, amplitude=0.5))
        a = generate_events(ScenarioSpec(seed=1, **base), instance)
        b = generate_events(ScenarioSpec(seed=2, **base), instance)
        assert _queries(a) != _queries(b)


class TestDiurnalModulation:
    def test_peak_windows_issue_more_than_troughs(self, instance):
        # phase 0.25 puts the peak at t=0 and the trough mid-cycle.
        spec = ScenarioSpec(
            name="d", seed=2, duration=8.0, base_rate=40.0, window=1.0,
            diurnal=DiurnalSpec(period=8.0, amplitude=0.9, phase=0.25),
        )
        counts = np.zeros(8)
        for t in _times(generate_events(spec, instance)):
            counts[min(int(t), 7)] += 1
        assert counts[0] > counts[4]
        # trough rate = base * (1 - 0.9) -- much smaller, never negative.
        assert counts[4] >= 0

    def test_regional_offsets_shift_the_peak(self, instance):
        # Two regions half a cycle apart: when one peaks the other
        # troughs, so their per-window counts are anti-correlated.
        spec = ScenarioSpec(
            name="d", seed=2, duration=8.0, base_rate=60.0, window=1.0,
            n_regions=2,
            diurnal=DiurnalSpec(period=8.0, amplitude=0.9, phase=0.25,
                                regional_offsets=(0.0, 0.5)),
        )
        region_counts = {0: np.zeros(8), 1: np.zeros(8)}
        for entry in _queries(generate_events(spec, instance)):
            t, region = entry.params["t"], entry.params["requester"] % 2
            region_counts[region][min(int(t), 7)] += 1
        # region 0 peaks in window 0; region 1 peaks half a period later.
        assert region_counts[0][0] > region_counts[0][4]
        assert region_counts[1][4] > region_counts[1][0]

    def test_rate_at_matches_formula(self):
        spec = ScenarioSpec(
            name="d", base_rate=100.0, n_regions=2,
            diurnal=DiurnalSpec(period=4.0, amplitude=0.5, phase=0.0),
        )
        # at t = 1 (quarter period) sin = 1 -> factor 1.5 on 50/region.
        assert rate_at(spec, 1.0, region=0) == pytest.approx(75.0)

    def test_requesters_stay_in_their_region(self, instance):
        spec = ScenarioSpec(
            name="d", seed=4, duration=4.0, base_rate=40.0, n_regions=3,
            diurnal=DiurnalSpec(period=4.0, amplitude=0.3),
        )
        queries = _queries(generate_events(spec, instance))
        assert len(queries) > 0
        for entry in queries:
            assert entry.params["requester"] in instance.nodes


class TestSkewFlip:
    def test_flip_concentrates_mass_on_hot_docs(self, instance):
        spec = ScenarioSpec(
            name="f", seed=11, duration=10.0, base_rate=200.0,
            flips=(SkewFlipSpec(at=5.0, mass=0.8, n_hot=2),),
        )
        before: dict[int, int] = {}
        after: dict[int, int] = {}
        for entry in _queries(generate_events(spec, instance)):
            bucket = after if entry.params["t"] >= 5.0 else before
            doc_id = entry.params["doc"]
            bucket[doc_id] = bucket.get(doc_id, 0) + 1
        top2_after = sorted(after.values(), reverse=True)[:2]
        n_after = sum(after.values())
        # the two hot docs should absorb most post-flip traffic.
        assert sum(top2_after) / n_after > 0.6
        top2_before = sorted(before.values(), reverse=True)[:2]
        assert sum(top2_before) / sum(before.values()) < 0.6


class TestControlEvents:
    """Controls are chaos schedule entries, each placed before the first
    query issued at or after its time; ``step`` counts the queries
    before it."""

    def test_misbehavior_controls_are_timed_and_typed(self, instance):
        spec = ScenarioSpec(
            name="c", seed=8, duration=6.0, base_rate=10.0,
            misbehavior=MisbehaviorSpec(at=2.5, n_bogus=1, n_stale_gossip=2),
        )
        schedule = generate_events(spec, instance)
        misbehaves = [e for e in schedule.entries if e.action == "misbehave"]
        assert len(misbehaves) == 3
        modes = sorted(e.params["mode"] for e in misbehaves)
        assert modes == ["bogus", "stale_gossip", "stale_gossip"]
        # Queries issue every 0.1 from t = 0: 25 come before t = 2.5, and
        # the three controls sit together right before the 26th.
        assert [e.step for e in misbehaves] == [25, 25, 25]
        first = schedule.entries.index(misbehaves[0])
        assert schedule.entries[first : first + 3] == tuple(misbehaves)
        assert len(_queries(schedule.truncated(first))) == 25
        ranks = {e.params["rank"] for e in misbehaves}
        assert len(ranks) == 3 and ranks <= set(range(len(instance.nodes)))

    def test_misbehaving_peers_are_contributors(self):
        # A free rider holds no document and is routed no query: armed,
        # it could not misbehave at all.
        instance = build_system(WORLD)
        designate_free_riders(instance, 0.5, seed=8)
        spec = ScenarioSpec(
            name="c", seed=8, duration=2.0, base_rate=10.0,
            misbehavior=MisbehaviorSpec(at=1.0, n_bogus=3, n_stale_gossip=3),
        )
        node_ids = sorted(instance.nodes)
        ranks = [
            e.params["rank"]
            for e in generate_events(spec, instance).entries
            if e.action == "misbehave"
        ]
        assert len(ranks) == 6
        assert not any(instance.nodes[node_ids[r]].is_free_rider for r in ranks)

    def test_partition_pairs_with_heal(self, instance):
        spec = ScenarioSpec(
            name="c", seed=8, duration=6.0, base_rate=10.0,
            partitions=(RegionalPartitionSpec(at=1.0, duration=2.0, region=0),),
        )
        schedule = generate_events(spec, instance)
        assert schedule.seed == 8
        assert _controls(schedule) == [
            ScheduleEntry(10, "regional_partition", {"region": 0}),
            ScheduleEntry(30, "heal", {}),
        ]
        # The partition applies after the query at t = 0.9, before 1.0.
        index = schedule.entries.index(_controls(schedule)[0])
        assert schedule.entries[index - 1].params["t"] < 1.0
        assert schedule.entries[index + 1].params["t"] == pytest.approx(1.0)

    def test_controls_sorted_by_time(self, instance):
        spec = ScenarioSpec(
            name="c", seed=8, duration=6.0, base_rate=10.0,
            misbehavior=MisbehaviorSpec(at=4.0, n_bogus=1),
            partitions=(RegionalPartitionSpec(at=1.0, duration=1.0),),
        )
        schedule = generate_events(spec, instance)
        assert [e.action for e in _controls(schedule)] == [
            "regional_partition", "heal", "misbehave",
        ]
        steps = [e.step for e in schedule.entries]
        assert steps == sorted(steps)

    def test_controls_between_the_same_queries_keep_time_order(self, instance):
        # A partition at 1.02 and a heal at 1.05 both fall between the
        # queries at 1.0 and 1.1, so they share step 11; time, not the
        # action name, orders them.
        spec = ScenarioSpec(
            name="c", seed=8, duration=6.0, base_rate=10.0,
            partitions=(
                RegionalPartitionSpec(at=0.5, duration=0.55, region=0),
                RegionalPartitionSpec(at=1.02, duration=1.0, region=1),
            ),
        )
        schedule = generate_events(spec, instance)
        assert [(e.step, e.action) for e in _controls(schedule)] == [
            (5, "regional_partition"),
            (11, "regional_partition"),
            (11, "heal"),
            (21, "heal"),
        ]


class TestDesignateFreeRiders:
    def test_documents_conserved_and_instance_valid(self):
        instance = build_system(WORLD)
        docs_before = {
            doc_id
            for node in instance.nodes.values()
            for doc_id in node.contributed_doc_ids
        }
        free = designate_free_riders(instance, 0.25, seed=3)
        assert free
        instance.validate()
        docs_after = {
            doc_id
            for node in instance.nodes.values()
            for doc_id in node.contributed_doc_ids
        }
        assert docs_before == docs_after

    def test_designated_nodes_are_free_riders(self):
        instance = build_system(WORLD)
        free = designate_free_riders(instance, 0.25, seed=3)
        for node_id in free:
            assert instance.nodes[node_id].is_free_rider
            assert node_id not in instance.node_categories

    def test_deterministic_for_seed(self):
        a = designate_free_riders(build_system(WORLD), 0.25, seed=3)
        b = designate_free_riders(build_system(WORLD), 0.25, seed=3)
        assert a == b

    def test_zero_fraction_is_noop(self):
        instance = build_system(WORLD)
        assert designate_free_riders(instance, 0.0, seed=3) == ()

    def test_at_least_one_contributor_remains(self):
        instance = build_system(WORLD)
        free = designate_free_riders(instance, 0.99, seed=3)
        assert len(free) == len(instance.nodes) - 1

    def test_fraction_one_rejected(self):
        with pytest.raises(ValueError, match="fraction"):
            designate_free_riders(build_system(WORLD), 1.0, seed=3)


class TestReplay:
    def test_run_schedule_applies_every_compiled_entry(self):
        # Entry by entry through Interpreter.apply, on the world the
        # chaos runner builds from the same config and seed: every query
        # and control applies, and the run stays clean.
        config = ScenarioConfig(
            n_docs=120, n_nodes=12, n_categories=8, n_clusters=3,
            doc_size_bytes=65_536, min_alive=0,
        )
        spec = ScenarioSpec(
            name="replay", seed=5, duration=2.0, base_rate=8.0,
            misbehavior=MisbehaviorSpec(at=0.5, n_bogus=1),
            partitions=(RegionalPartitionSpec(at=1.0, duration=0.5),),
        )
        schedule = generate_events(spec, build_system(WORLD))
        report = run_schedule(schedule, config)
        assert report.ok, report.summary()
        assert report.entries_applied == len(schedule)
        assert report.outcomes_total == spec.n_queries == 16
