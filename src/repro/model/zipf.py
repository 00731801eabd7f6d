"""Zipf distribution utilities.

The paper assumes document popularities follow a Zipf distribution, as has
been observed for web objects [19, 31] and for existing P2P systems [17].
The Zipf parameter theta used throughout the paper's evaluation lies in the
measured range [0.6, 0.8] for documents (theta = 0.8 in all experiments)
and theta = 0.7 or 0.8 for category popularities.

We use the "Zipf-like" form common in the web-caching literature
(Breslau et al. [19]):

    P(rank = i)  proportional to  1 / i**theta,   i = 1..n

with theta = 0 giving the uniform distribution and theta = 1 the classic
Zipf law.  All functions here are deterministic given an explicit
``numpy.random.Generator``; none touch global RNG state.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "zipf_pmf",
    "ZipfSampler",
    "TimeVaryingZipfSampler",
    "top_mass_count",
    "estimate_theta",
]


def zipf_pmf(n: int, theta: float) -> np.ndarray:
    """Return the Zipf-like probability mass function over ranks ``1..n``.

    ``pmf[i]`` is the popularity of the item of rank ``i + 1``.  The vector
    sums to 1 and is non-increasing.

    Parameters
    ----------
    n:
        Number of items (must be positive).
    theta:
        Skew parameter; 0 is uniform, larger is more skewed.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if theta < 0:
        raise ValueError(f"theta must be non-negative, got {theta}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-theta
    return weights / weights.sum()


@lru_cache(maxsize=128)
def _zipf_sampling_cdf(n: int, theta: float) -> np.ndarray:
    """Normalized sampling CDF for ``ZipfSampler``, cached per (n, theta).

    The returned array is marked read-only: it is shared across every
    sampler with the same parameters.
    """
    cdf = np.cumsum(zipf_pmf(n, theta))
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return cdf


class ZipfSampler:
    """Precomputed inverse-CDF sampler for a Zipf-like law.

    Drawing via ``cdf.searchsorted(rng.random(size))`` consumes the same
    RNG stream and returns the same values as ``rng.choice(n, size, p=pmf)``
    (numpy's choice is implemented exactly this way), but skips rebuilding
    and re-validating the pmf on every call — the CDF is computed once per
    ``(n, theta)`` and shared.
    """

    __slots__ = ("n", "theta", "_cdf")

    def __init__(self, n: int, theta: float) -> None:
        self._cdf = _zipf_sampling_cdf(n, theta)
        self.n = n
        self.theta = theta

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` 0-based ranks; index 0 is the most popular item."""
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        idx = self._cdf.searchsorted(rng.random(size), side="right")
        return np.asarray(idx, dtype=np.int64)


class TimeVaryingZipfSampler:
    """A popularity law whose shape changes over simulated time.

    Two kinds of non-stationarity compose (both from the scenario-engine
    vocabulary; see :mod:`repro.scenario`):

    * **drift** — the identity of the popular items rotates through the
      rank order at ``drift_ranks_per_unit`` positions per time unit (a
      pure permutation of the pmf, so mass is conserved trivially);
    * **skew flips** — at time ``at`` the law becomes the convex mixture
      ``(1 - mass) * old + mass * uniform(hot_indices)`` ("breaking
      news": a small hot set suddenly carries ``mass`` of all requests).
      A convex mixture of distributions is a distribution, so mass is
      conserved here too.

    ``pmf_at(t)`` is a pure function of ``t`` — the sampler holds no
    mutable state, so replaying any time point yields the same law.
    """

    __slots__ = ("_pmf", "drift_ranks_per_unit", "flips")

    def __init__(
        self,
        pmf: np.ndarray,
        drift_ranks_per_unit: float = 0.0,
        flips: tuple[tuple[float, float, tuple[int, ...]], ...] = (),
    ) -> None:
        """``flips`` entries are ``(at, mass, hot_indices)`` triples."""
        pmf = np.asarray(pmf, dtype=np.float64)
        if pmf.ndim != 1 or len(pmf) == 0:
            raise ValueError("pmf must be a non-empty 1-D array")
        if np.any(pmf < 0):
            raise ValueError("pmf entries must be non-negative")
        total = pmf.sum()
        if total <= 0:
            raise ValueError("pmf must have positive total mass")
        if drift_ranks_per_unit < 0:
            raise ValueError(
                f"drift_ranks_per_unit must be non-negative, "
                f"got {drift_ranks_per_unit}"
            )
        for at, mass, hot in flips:
            if not 0.0 < mass < 1.0:
                raise ValueError(f"flip mass must be in (0, 1), got {mass}")
            if not hot:
                raise ValueError(f"flip at t={at} names no hot indices")
            for index in hot:
                if not 0 <= index < len(pmf):
                    raise ValueError(
                        f"flip hot index {index} outside [0, {len(pmf)})"
                    )
        self._pmf = pmf / total
        self._pmf.setflags(write=False)
        self.drift_ranks_per_unit = float(drift_ranks_per_unit)
        self.flips = tuple(sorted(flips, key=lambda flip: flip[0]))

    def __len__(self) -> int:
        return len(self._pmf)

    def pmf_at(self, t: float) -> np.ndarray:
        """The probability mass function in effect at time ``t``.

        Sums to 1 and stays non-negative under any drift/flip composition
        (property-tested in ``tests/test_scenario_properties.py``).
        """
        pmf = self._pmf
        shift = int(self.drift_ranks_per_unit * t) % len(pmf)
        if shift:
            pmf = np.roll(pmf, shift)
        for at, mass, hot in self.flips:
            if t >= at:
                boost = np.zeros(len(pmf))
                boost[list(hot)] = 1.0 / len(hot)
                pmf = (1.0 - mass) * pmf + mass * boost
        return pmf

    def sample(
        self, rng: np.random.Generator, t: float, size: int
    ) -> np.ndarray:
        """Draw ``size`` 0-based item indices from the law at time ``t``."""
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        cdf = np.cumsum(self.pmf_at(t))
        cdf /= cdf[-1]
        idx = cdf.searchsorted(rng.random(size), side="right")
        return np.asarray(idx, dtype=np.int64)


def top_mass_count(pmf: np.ndarray, mass: float) -> int:
    """Smallest number of top-ranked items whose total popularity >= ``mass``.

    This is the quantity behind the paper's Section 4.3.3 observation that
    "less than 10% of all documents typically total more than 35% of the
    document probability mass" for realistic Zipf parameters.

    Parameters
    ----------
    pmf:
        Popularity vector sorted in non-increasing order (need not sum to 1;
        ``mass`` is interpreted as a fraction of its total).
    mass:
        Target fraction of total popularity, in [0, 1].
    """
    if not 0.0 <= mass <= 1.0:
        raise ValueError(f"mass must be in [0, 1], got {mass}")
    if len(pmf) == 0:
        return 0
    total = float(np.sum(pmf))
    if total <= 0.0:
        return 0
    cumulative = np.cumsum(np.sort(pmf)[::-1]) / total
    return int(np.searchsorted(cumulative, mass - 1e-12) + 1)


def estimate_theta(counts: np.ndarray) -> float:
    """Estimate the Zipf parameter from observed access counts.

    Fits ``log(count) = c - theta * log(rank)`` by least squares over the
    non-zero counts.  Useful for checking that generated workloads have the
    intended skew, and for the adaptation machinery's popularity tracking.
    """
    counts = np.asarray(counts, dtype=np.float64)
    counts = np.sort(counts[counts > 0])[::-1]
    if len(counts) < 2:
        return 0.0
    ranks = np.arange(1, len(counts) + 1, dtype=np.float64)
    slope, _intercept = np.polyfit(np.log(ranks), np.log(counts), 1)
    return max(0.0, -float(slope))


def harmonic_generalized(n: int, theta: float) -> float:
    """Generalized harmonic number ``H(n, theta) = sum_{i=1}^{n} i**-theta``.

    The normalizing constant of the Zipf-like law; exposed for closed-form
    storage/load computations in the experiments.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return float(sum(i**-theta for i in range(1, n + 1)))


def expected_top_mass(n: int, theta: float, fraction: float) -> float:
    """Closed-form fraction of probability mass in the top ``fraction`` items.

    For example ``expected_top_mass(1000, 0.8, 0.10)`` gives the share of
    accesses hitting the most popular 10% of 1000 documents — the quantity
    the replication policy of Section 4.3.3 relies on exceeding 35%.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    top = max(1, math.floor(n * fraction)) if fraction > 0 else 0
    if top == 0:
        return 0.0
    return harmonic_generalized(top, theta) / harmonic_generalized(n, theta)
