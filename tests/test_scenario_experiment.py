"""The SCENARIO experiment: matrix shape, clean invariants, registry."""

import inspect

import pytest

from repro.experiments import EXPERIMENTS, scenario


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

    def test_format_result_renders_table(self, result):
        text = scenario.format_result(result)
        assert "SCENARIO matrix" in text
        assert "stationary" in text
        assert "invariant violations: 0" in text


class TestRegistry:
    def test_registered(self):
        assert EXPERIMENTS["SCENARIO"] is scenario

    def test_accepts_seed(self):
        # What the CLI asks before passing ``--seed``.
        assert "seed" in inspect.signature(scenario.run).parameters
