"""The SCENARIO experiment: matrix shape, clean invariants, registry."""

import inspect

import pytest

from repro import obs
from repro.experiments import EXPERIMENTS, scenario
from repro.scenario import RegionalPartitionSpec, ScenarioSpec, standard_matrix


@pytest.fixture(scope="module")
def result():
    return scenario.run(seed=7)


class TestMatrixRun:
    def test_all_specs_and_phases_reported(self, result):
        assert result.n_specs == 4
        assert result.n_phases == 4
        assert len(result.spec_names) == 16
        assert set(result.spec_names) == {
            "stationary",
            "diurnal-regional",
            "drift-flip",
            "freeride-misbehave",
        }
        for name in set(result.spec_names):
            phases = [
                result.phase_index[i]
                for i in range(len(result.spec_names))
                if result.spec_names[i] == name
            ]
            assert phases == [0, 1, 2, 3]

    def test_invariants_clean(self, result):
        assert result.violations == 0, result.violation_details

    def test_every_phase_issued_queries(self, result):
        assert all(n > 0 for n in result.n_queries)

    def test_goodput_positive_everywhere(self, result):
        # Even the misbehaving/partitioned phases must keep serving.
        assert all(g > 0.0 for g in result.goodput)

    def test_fairness_in_unit_interval(self, result):
        assert all(0.0 < f <= 1.0 for f in result.fairness)
        assert all(0.0 < f <= 1.0 for f in result.fairness_per_unit)

    def test_format_result_renders_table(self, result):
        text = scenario.format_result(result)
        assert "SCENARIO matrix" in text
        assert "stationary" in text
        assert "invariant violations: 0" in text


class TestControlTiming:
    def test_a_partition_in_phase_one_leaves_phase_zero_clean(
        self, monkeypatch
    ):
        """A control applies after every query issued before its time:
        a partition from t = 2 (phase 1 of 0-2, 2-4, ...) must not touch
        phase 0, whose queries all succeed at the unpartitioned latency."""
        clean = ScenarioSpec(
            name="clean", seed=8, duration=8.0, base_rate=60.0, n_regions=4
        )
        cut = ScenarioSpec(
            name="cut", seed=8, duration=8.0, base_rate=60.0, n_regions=4,
            partitions=(
                RegionalPartitionSpec(at=2.0, duration=1.6, region=1),
            ),
        )
        monkeypatch.setattr(
            scenario, "standard_matrix", lambda seed: (clean, cut)
        )
        result = scenario.run(seed=7)
        phase_window = 2.0
        # rows: clean phases 0-3, then cut phases 0-3.
        assert result.n_queries[4] == result.n_queries[0]
        assert result.goodput[4] * phase_window == result.n_queries[4]
        assert result.p99_latency[4] == result.p99_latency[0]
        # ... and the partition does show, in phase 1.
        assert result.p99_latency[5] > result.p99_latency[1]
        assert result.violations == 0, result.violation_details


class TestMisbehaviour:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_the_bogus_responder_answers(self, seed, monkeypatch):
        """``freeride-misbehave`` arms a contributor, never a free rider
        (which holds no document and is routed no query), so the bogus
        answers it reports are really sent — and every one is caught."""
        monkeypatch.setattr(
            scenario, "standard_matrix",
            lambda seed: [s for s in standard_matrix(seed) if s.misbehavior],
        )
        sent = obs.counter("overlay.bogus_responses_sent")
        before = sent.value
        result = scenario.run(seed=seed)
        assert result.spec_names[0] == "freeride-misbehave"
        assert sent.value > before
        assert result.violations == 0, result.violation_details


class TestRegistry:
    def test_registered(self):
        assert EXPERIMENTS["SCENARIO"] is scenario

    def test_accepts_seed(self):
        # What the CLI asks before passing ``--seed``.
        assert "seed" in inspect.signature(scenario.run).parameters
