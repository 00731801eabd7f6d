"""Spec-layer tests: validation, stationarity, the standard matrix."""

import pytest

from repro.chaos import Schedule, ScheduleEntry
from repro.model.system import SystemConfig, build_system
from repro.scenario import (
    DiurnalSpec,
    DriftSpec,
    FreeRiderSpec,
    MisbehaviorSpec,
    RegionalPartitionSpec,
    ScenarioSpec,
    SkewFlipSpec,
    generate_events,
    standard_matrix,
)


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            ScenarioSpec(name="")

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            ScenarioSpec(name="x", duration=0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="base_rate"):
            ScenarioSpec(name="x", base_rate=-1.0)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ScenarioSpec(name="x", window=0.0)

    def test_diurnal_amplitude_capped_at_one(self):
        # amplitude <= 1 is what makes non-negative rates hold by
        # construction rather than by clamping.
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalSpec(amplitude=1.5)
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalSpec(amplitude=-0.1)

    def test_diurnal_period_positive(self):
        with pytest.raises(ValueError, match="period"):
            DiurnalSpec(period=0.0)

    def test_drift_nonnegative(self):
        with pytest.raises(ValueError, match="ranks_per_unit"):
            DriftSpec(ranks_per_unit=-1.0)

    def test_flip_mass_open_interval(self):
        with pytest.raises(ValueError, match="mass"):
            SkewFlipSpec(at=1.0, mass=0.0)
        with pytest.raises(ValueError, match="mass"):
            SkewFlipSpec(at=1.0, mass=1.0)

    def test_free_rider_fraction_below_one(self):
        with pytest.raises(ValueError, match="fraction"):
            FreeRiderSpec(fraction=1.0)

    def test_partition_duration_positive(self):
        with pytest.raises(ValueError, match="duration"):
            RegionalPartitionSpec(at=1.0, duration=0.0)

    def test_misbehavior_counts_nonnegative(self):
        with pytest.raises(ValueError, match="non-negative"):
            MisbehaviorSpec(n_bogus=-1)


class TestStationary:
    def test_bare_spec_is_stationary(self):
        assert ScenarioSpec(name="s").is_stationary

    def test_any_modulator_breaks_stationarity(self):
        assert not ScenarioSpec(name="s", diurnal=DiurnalSpec()).is_stationary
        assert not ScenarioSpec(name="s", drift=DriftSpec()).is_stationary
        assert not ScenarioSpec(
            name="s", flips=(SkewFlipSpec(at=1.0),)
        ).is_stationary

    def test_environment_blocks_keep_stationarity(self):
        # Free riders / misbehavior / partitions change the world and the
        # controls, never the query stream itself.
        spec = ScenarioSpec(
            name="s",
            free_riders=FreeRiderSpec(),
            misbehavior=MisbehaviorSpec(n_bogus=1),
            partitions=(RegionalPartitionSpec(at=1.0, duration=1.0),),
        )
        assert spec.is_stationary

    def test_n_queries_rounds_rate_times_duration(self):
        assert ScenarioSpec(
            name="s", base_rate=50.0, duration=10.0
        ).n_queries == 500


class TestStandardMatrix:
    def test_shape_and_names(self):
        matrix = standard_matrix(seed=7)
        assert [spec.name for spec in matrix] == [
            "stationary",
            "diurnal-regional",
            "drift-flip",
            "freeride-misbehave",
        ]

    def test_baseline_is_stationary_others_are_not(self):
        matrix = standard_matrix()
        assert matrix[0].is_stationary
        assert not matrix[1].is_stationary
        assert not matrix[2].is_stationary
        # the free-rider spec modulates the environment, not the rate.
        assert matrix[3].is_stationary

    def test_seeds_derive_from_root(self):
        matrix = standard_matrix(seed=100)
        assert [spec.seed for spec in matrix] == [100, 101, 102, 103]

    def test_every_spec_round_trips(self):
        # A spec replays from its compiled schedule's Python source.
        instance = build_system(SystemConfig(seed=1, n_docs=60, n_nodes=16))
        namespace = {"Schedule": Schedule, "ScheduleEntry": ScheduleEntry}
        for spec in standard_matrix():
            schedule = generate_events(spec, instance)
            assert eval(schedule.to_python(), namespace) == schedule
