"""Tests for repro.model.zipf."""

import numpy as np
import pytest

from repro.model.zipf import (
    ZipfSampler,
    estimate_theta,
    expected_top_mass,
    harmonic_generalized,
    top_mass_count,
    zipf_pmf,
)


def zipf_sample(rng, n, theta, size):
    return ZipfSampler(n, theta).sample(rng, size)


def mass_of_top(pmf, count):
    """Fraction of the mass held by the ``count`` most popular items:
    :func:`top_mass_count`'s inverse, the oracle it is checked against."""
    return float(np.sum(np.sort(pmf)[::-1][:count]) / np.sum(pmf))


class TestZipfPmf:
    def test_sums_to_one(self):
        assert zipf_pmf(100, 0.8).sum() == pytest.approx(1.0)

    def test_non_increasing(self):
        pmf = zipf_pmf(500, 0.7)
        assert np.all(np.diff(pmf) <= 0)

    def test_theta_zero_is_uniform(self):
        pmf = zipf_pmf(10, 0.0)
        assert np.allclose(pmf, 0.1)

    def test_single_item(self):
        assert zipf_pmf(1, 0.8) == pytest.approx([1.0])

    def test_higher_theta_is_more_skewed(self):
        low = zipf_pmf(100, 0.4)
        high = zipf_pmf(100, 0.9)
        assert high[0] > low[0]
        assert high[-1] < low[-1]

    def test_rank_ratio_matches_law(self):
        theta = 0.8
        pmf = zipf_pmf(1000, theta)
        # p(1)/p(2) = 2**theta
        assert pmf[0] / pmf[1] == pytest.approx(2**theta)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            zipf_pmf(0, 0.8)

    def test_rejects_negative_theta(self):
        with pytest.raises(ValueError):
            zipf_pmf(10, -0.1)


class TestZipfSample:
    def test_deterministic_for_seed(self):
        a = zipf_sample(np.random.default_rng(1), 100, 0.8, 50)
        b = zipf_sample(np.random.default_rng(1), 100, 0.8, 50)
        assert np.array_equal(a, b)

    def test_range(self):
        sample = zipf_sample(np.random.default_rng(2), 20, 0.8, 1000)
        assert sample.min() >= 0
        assert sample.max() < 20

    def test_rank_zero_most_frequent(self):
        sample = zipf_sample(np.random.default_rng(3), 50, 0.9, 20000)
        counts = np.bincount(sample, minlength=50)
        assert counts[0] == counts.max()

    def test_empty(self):
        assert len(zipf_sample(np.random.default_rng(4), 10, 0.8, 0)) == 0

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            zipf_sample(np.random.default_rng(5), 10, 0.8, -1)


class TestTopMass:
    def test_top_mass_count_basic(self):
        pmf = np.array([0.5, 0.3, 0.2])
        assert top_mass_count(pmf, 0.5) == 1
        assert top_mass_count(pmf, 0.6) == 2
        assert top_mass_count(pmf, 1.0) == 3

    def test_top_mass_count_unsorted_input(self):
        pmf = np.array([0.2, 0.5, 0.3])
        assert top_mass_count(pmf, 0.5) == 1

    def test_top_mass_count_empty(self):
        assert top_mass_count(np.array([]), 0.5) == 0

    def test_top_mass_count_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            top_mass_count(np.array([1.0]), 1.5)

    def test_mass_of_top_inverse(self):
        pmf = zipf_pmf(1000, 0.8)
        count = top_mass_count(pmf, 0.35)
        assert mass_of_top(pmf, count) >= 0.35
        assert mass_of_top(pmf, count - 1) < 0.35

    def test_paper_claim_top_10pct_over_35pct(self):
        # Section 4.3.3: <10% of docs cover >35% of the mass for realistic
        # Zipf parameters.
        for n in (1000, 10_000):
            for theta in (0.6, 0.7, 0.8):
                assert expected_top_mass(n, theta, 0.10) > 0.35

    def test_mass_of_top_zero(self):
        assert mass_of_top(zipf_pmf(10, 0.8), 0) == 0.0


class TestEstimateTheta:
    def test_recovers_generating_parameter(self):
        rng = np.random.default_rng(6)
        sample = zipf_sample(rng, 2000, 0.8, 200_000)
        counts = np.bincount(sample, minlength=2000)
        assert estimate_theta(counts) == pytest.approx(0.8, abs=0.1)

    def test_uniform_counts_give_zero(self):
        assert estimate_theta(np.full(100, 7)) == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_input(self):
        assert estimate_theta(np.array([5])) == 0.0
        assert estimate_theta(np.array([])) == 0.0


class TestHarmonic:
    def test_matches_direct_sum(self):
        assert harmonic_generalized(100, 0.8) == pytest.approx(
            sum(i**-0.8 for i in range(1, 101))
        )

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            harmonic_generalized(0, 0.8)

    def test_expected_top_mass_bounds(self):
        assert expected_top_mass(100, 0.8, 0.0) == 0.0
        assert expected_top_mass(100, 0.8, 1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            expected_top_mass(100, 0.8, 1.5)
