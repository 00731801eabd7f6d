"""Property tests for the scenario engine's core contracts.

Five properties, each over randomly composed specs:

1. the same spec + seed always yields an identical schedule;
2. the instantaneous rate is non-negative under any diurnal composition;
3. the time-varying popularity law conserves probability mass (and stays
   non-negative) through drift and any sequence of skew flips;
4. every spec's compiled schedule, queries included, survives its one
   codec, ``Schedule.to_python``, unchanged — what makes a run replayable;
5. the schedule's queries are in time order and each control sits
   before exactly the queries issued at or after its time.
"""

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import Schedule, ScheduleEntry
from repro.model.system import SystemConfig, build_system
from repro.model.zipf import TimeVaryingZipfSampler
from repro.scenario import (
    DiurnalSpec,
    DriftSpec,
    FreeRiderSpec,
    MisbehaviorSpec,
    RegionalPartitionSpec,
    ScenarioSpec,
    SkewFlipSpec,
    generate_events,
    rate_at,
)

#: one shared small world — the properties quantify over specs, not worlds.
INSTANCE = build_system(
    SystemConfig(
        seed=17,
        n_docs=60,
        n_nodes=9,
        n_categories=6,
        n_clusters=3,
        doc_size_bytes=65_536,
    )
)

finite = dict(allow_nan=False, allow_infinity=False)

diurnals = st.builds(
    DiurnalSpec,
    period=st.floats(0.5, 48.0, **finite),
    amplitude=st.floats(0.0, 1.0, **finite),
    phase=st.floats(-2.0, 2.0, **finite),
    regional_offsets=st.lists(
        st.floats(0.0, 1.0, **finite), max_size=4
    ).map(tuple),
)
drifts = st.builds(DriftSpec, ranks_per_unit=st.floats(0.0, 10.0, **finite))
flips = st.lists(
    st.builds(
        SkewFlipSpec,
        at=st.floats(0.0, 8.0, **finite),
        mass=st.floats(0.05, 0.95, **finite),
        n_hot=st.integers(1, 10),
    ),
    max_size=3,
).map(tuple)

specs = st.builds(
    ScenarioSpec,
    name=st.just("prop"),
    seed=st.integers(0, 2**31 - 1),
    duration=st.floats(1.0, 8.0, **finite),
    base_rate=st.floats(0.0, 40.0, **finite),
    m=st.integers(1, 3),
    n_regions=st.integers(1, 4),
    window=st.floats(0.25, 2.0, **finite),
    diurnal=st.none() | diurnals,
    drift=st.none() | drifts,
    flips=flips,
    free_riders=st.none()
    | st.builds(FreeRiderSpec, fraction=st.floats(0.0, 0.5, **finite)),
    misbehavior=st.none()
    | st.builds(
        MisbehaviorSpec,
        at=st.floats(0.0, 8.0, **finite),
        n_bogus=st.integers(0, 2),
        n_stale_gossip=st.integers(0, 2),
    ),
    partitions=st.lists(
        st.builds(
            RegionalPartitionSpec,
            at=st.floats(0.0, 6.0, **finite),
            duration=st.floats(0.1, 4.0, **finite),
            region=st.integers(0, 3),
        ),
        max_size=2,
    ).map(tuple),
)


@settings(max_examples=40, deadline=None)
@given(spec=specs)
def test_same_spec_yields_byte_identical_streams(spec):
    first = generate_events(spec, INSTANCE)
    second = generate_events(spec, INSTANCE)
    assert first == second
    assert first.to_python() == second.to_python()


@settings(max_examples=100, deadline=None)
@given(
    spec=specs,
    t=st.floats(0.0, 100.0, **finite),
    region=st.integers(0, 7),
)
def test_instantaneous_rate_never_negative(spec, t, region):
    assert rate_at(spec, t, region) >= 0.0


@settings(max_examples=60, deadline=None)
@given(
    drift=st.floats(0.0, 20.0, **finite),
    flip_points=st.lists(
        st.tuples(
            st.floats(0.0, 10.0, **finite),   # at
            st.floats(0.05, 0.95, **finite),  # mass
            st.integers(1, 8),                # n_hot
        ),
        max_size=3,
    ),
    t=st.floats(0.0, 12.0, **finite),
    n_items=st.integers(2, 50),
)
def test_popularity_mass_conserved_through_drift_and_flips(
    drift, flip_points, t, n_items
):
    rng = np.random.default_rng(0)
    pmf = rng.random(n_items) + 0.01
    flips = tuple(
        (at, mass, tuple(range(min(n_hot, n_items))))
        for at, mass, n_hot in flip_points
    )
    sampler = TimeVaryingZipfSampler(
        pmf, drift_ranks_per_unit=drift, flips=flips
    )
    law = sampler.pmf_at(t)
    assert law.sum() == pytest.approx(1.0, abs=1e-9)
    assert (law >= 0.0).all()


@settings(max_examples=60, deadline=None)
@given(spec=specs)
def test_controls_survive_to_python_round_trip(spec):
    schedule = generate_events(spec, INSTANCE)
    namespace = {"Schedule": Schedule, "ScheduleEntry": ScheduleEntry}
    assert eval(schedule.to_python(), namespace) == schedule


def _declared_controls(spec):
    """``(time, action)`` of every control the spec declares, in order."""
    declared = []
    misbehavior = spec.misbehavior
    if misbehavior is not None:
        n_picks = misbehavior.n_bogus + misbehavior.n_stale_gossip
        contributors = [n for n in INSTANCE.nodes.values() if not n.is_free_rider]
        declared += [(misbehavior.at, "misbehave")] * min(
            n_picks, len(contributors)
        )
    for partition in spec.partitions:
        declared.append((partition.at, "regional_partition"))
        declared.append((partition.at + partition.duration, "heal"))
    return sorted(declared)


@settings(max_examples=60, deadline=None)
@given(spec=specs)
def test_queries_in_time_order_and_controls_before_their_queries(spec):
    schedule = generate_events(spec, INSTANCE)
    times = []
    placed = []  # (action, queries before it), one per control
    for entry in schedule.entries:
        assert entry.step == len(times)
        if entry.action == "query":
            times.append(entry.params["t"])
        else:
            placed.append((entry.action, len(times)))
    assert times == sorted(times)
    declared = _declared_controls(spec)
    assert [action for action, _ in placed] == [a for _, a in declared]
    for (_, n_before), (t, _) in zip(placed, declared):
        assert n_before == bisect_left(times, t)
