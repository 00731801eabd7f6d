"""Tests for repro.core.fairness."""

import numpy as np
import pytest

from repro.core.fairness import (
    coefficient_of_variation,
    gini,
    jain_fairness,
    lorenz_curve,
    majorizes,
)


class TestJainFairness:
    def test_equal_allocation_is_one(self):
        assert jain_fairness([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_element_is_one(self):
        assert jain_fairness([5.0]) == pytest.approx(1.0)

    def test_one_hot_is_one_over_n(self):
        # The classic property: all load on one of n participants gives 1/n.
        assert jain_fairness([1.0, 0, 0, 0]) == pytest.approx(0.25)

    def test_scale_invariant(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert jain_fairness(x) == pytest.approx(
            jain_fairness([v * 1000 for v in x])
        )

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.random(10)
            assert 0.0 < jain_fairness(x) <= 1.0

    def test_all_zero_is_one(self):
        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_paper_interpretation(self):
        # "if the fairness index is 0.20 it means that the load distribution
        # is fair for 20% of the nodes" — one busy node among five equals 0.2.
        assert jain_fairness([1, 0, 0, 0, 0]) == pytest.approx(0.2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            jain_fairness([-1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            jain_fairness([])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            jain_fairness(np.ones((2, 2)))


class TestMajorization:
    def test_concentrated_majorizes_spread(self):
        assert majorizes([4.0, 0.0], [2.0, 2.0])
        assert not majorizes([2.0, 2.0], [4.0, 0.0])

    def test_self_majorization(self):
        assert majorizes([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])  # same multiset

    def test_incomparable_pair(self):
        # Classic incomparable vectors under majorization.
        a = [3.0, 3.0, 0.0]
        b = [4.0, 1.0, 1.0]
        assert not majorizes(a, b)
        assert not majorizes(b, a)

    def test_requires_equal_totals(self):
        with pytest.raises(ValueError):
            majorizes([1.0, 2.0], [1.0, 1.0])

    def test_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            majorizes([1.0, 2.0], [3.0])

    def test_majorization_implies_lower_jain(self):
        # [24]: majorization is stricter than the fairness index — if x
        # majorizes y then jain(x) <= jain(y).
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(200):
            x = rng.random(6)
            y = rng.random(6)
            y = y * (x.sum() / y.sum())
            if majorizes(x, y):
                assert jain_fairness(x) <= jain_fairness(y) + 1e-9
                checked += 1
        assert checked > 0


class TestGini:
    def test_equal_is_zero(self):
        assert gini([2.0, 2.0, 2.0]) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_approaches_one(self):
        assert gini([1.0] + [0.0] * 99) == pytest.approx(0.99, abs=0.001)

    def test_scale_invariant(self):
        x = [1.0, 5.0, 2.0]
        assert gini(x) == pytest.approx(gini([v * 7 for v in x]))

    def test_all_zero(self):
        assert gini([0.0, 0.0]) == 0.0


class TestLorenz:
    def test_shape(self):
        curve = lorenz_curve([1.0, 2.0, 3.0])
        assert len(curve) == 4
        assert curve[0] == 0.0
        assert curve[-1] == pytest.approx(1.0)

    def test_monotone_convex(self):
        curve = lorenz_curve([5.0, 1.0, 3.0, 2.0])
        diffs = np.diff(curve)
        assert np.all(diffs >= 0)
        assert np.all(np.diff(diffs) >= -1e-12)  # increments non-decreasing

    def test_equal_allocation_is_diagonal(self):
        curve = lorenz_curve([2.0, 2.0])
        assert np.allclose(curve, [0.0, 0.5, 1.0])

    def test_zero_vector_is_diagonal(self):
        assert np.allclose(lorenz_curve([0.0, 0.0]), [0.0, 0.5, 1.0])


class TestOtherMetrics:
    def test_cv_equal_is_zero(self):
        assert coefficient_of_variation([4.0, 4.0]) == 0.0

    def test_cv_zero_mean(self):
        assert coefficient_of_variation([0.0, 0.0]) == 0.0
