"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fairness import (
    JainState,
    gini,
    jain_fairness,
    lorenz_curve,
    majorizes,
)
from repro.core.maxfair import Assignment, maxfair_from_stats
from repro.core.popularity import CategoryStats
from repro.core.reassign import maxfair_reassign_from_stats
from repro.model.zipf import top_mass_count, zipf_pmf
from repro.overlay.metadata import DCRT, DCRTEntry

allocations = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=40,
)

positive_allocations = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    min_size=2,
    max_size=40,
)


class TestFairnessProperties:
    @given(allocations)
    def test_jain_in_unit_interval(self, x):
        assert 0.0 < jain_fairness(x) <= 1.0 or sum(x) == 0.0

    @given(positive_allocations, st.floats(min_value=0.1, max_value=100.0))
    def test_jain_scale_invariant(self, x, scale):
        assert abs(jain_fairness(x) - jain_fairness([v * scale for v in x])) < 1e-6

    @given(positive_allocations)
    def test_jain_permutation_invariant(self, x):
        shuffled = list(reversed(x))
        assert abs(jain_fairness(x) - jain_fairness(shuffled)) < 1e-9

    @given(positive_allocations)
    def test_jain_lower_bound_one_over_n(self, x):
        assert jain_fairness(x) >= 1.0 / len(x) - 1e-12

    @given(positive_allocations)
    def test_gini_in_unit_interval(self, x):
        assert -1e-9 <= gini(x) < 1.0

    @given(positive_allocations)
    def test_lorenz_endpoints_and_monotone(self, x):
        curve = lorenz_curve(x)
        assert curve[0] == 0.0
        assert abs(curve[-1] - 1.0) < 1e-9
        assert np.all(np.diff(curve) >= -1e-12)

    @given(positive_allocations)
    def test_equalizing_transfer_improves_jain(self, x):
        """A Pigou-Dalton transfer (rich to poor, without overshooting)
        never decreases the Jain index."""
        x = list(x)
        hi = max(range(len(x)), key=lambda i: x[i])
        lo = min(range(len(x)), key=lambda i: x[i])
        if hi == lo or x[hi] - x[lo] < 1e-9:
            return
        delta = (x[hi] - x[lo]) / 4
        y = list(x)
        y[hi] -= delta
        y[lo] += delta
        assert jain_fairness(y) >= jain_fairness(x) - 1e-9

    @given(positive_allocations)
    def test_self_majorization_reflexive(self, x):
        assert majorizes(x, x)

    # Loads and capacities stay within [0.5, 2.5]: running sums lose
    # digits to cancellation once the values span many orders of
    # magnitude, which is not what this test is about.
    @given(
        st.lists(
            st.tuples(st.floats(1.0, 2.0), st.floats(1.0, 2.0)),
            min_size=2,
            max_size=6,
        ),
        st.lists(
            st.tuples(
                st.integers(0, 5), st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)
            ),
            max_size=10,
        ),
        st.none() | st.integers(0, 5),
    )
    def test_running_jain_state_matches_from_scratch(self, initial, changes, emptied):
        n = len(initial)
        state = JainState(n)
        state.apply(*((c, load, cap) for c, (load, cap) in enumerate(initial)))
        for cluster, d_load, d_capacity in changes:
            change = (cluster % n, d_load, d_capacity)
            predicted = state.fairness_if(change)
            state.apply(change)
            assert abs(state.fairness() - predicted) <= 1e-12
        if emptied is not None:
            # Take a hair more than is there: the clamp zeroes the cluster.
            c = emptied % n
            state.apply(
                (
                    c,
                    -np.nextafter(state.load[c], np.inf),
                    -np.nextafter(state.capacity[c], np.inf),
                )
            )
            assert state.load[c] == 0.0 and state.capacity[c] == 0.0
        values = np.divide(
            state.load, state.capacity, out=np.zeros(n), where=state.capacity > 0
        )
        assert np.array_equal(values, state.values)
        assert abs(state.fairness() - jain_fairness(values)) <= 1e-12


class TestZipfProperties:
    @given(
        st.integers(min_value=1, max_value=2000),
        st.floats(min_value=0.0, max_value=1.5),
    )
    def test_pmf_sums_to_one_and_sorted(self, n, theta):
        pmf = zipf_pmf(n, theta)
        assert abs(pmf.sum() - 1.0) < 1e-9
        assert np.all(np.diff(pmf) <= 1e-15)

    @given(
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=0.0, max_value=1.2),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_top_mass_count_is_minimal(self, n, theta, mass):
        pmf = zipf_pmf(n, theta)
        count = top_mass_count(pmf, mass)
        assert 0 <= count <= n
        if count > 0:
            assert pmf[:count].sum() >= mass - 1e-9
        if count > 1:
            assert pmf[: count - 1].sum() < mass


stats_strategy = st.integers(min_value=2, max_value=30).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=n,
            max_size=n,
        ),
        st.lists(
            st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
            min_size=n,
            max_size=n,
        ),
        st.integers(min_value=1, max_value=6),
    )
)


def _make_stats(popularity, weights):
    popularity = np.asarray(popularity)
    weights = np.asarray(weights)
    return CategoryStats(popularity=popularity, storage_weight=weights)


class TestMaxFairProperties:
    @settings(max_examples=50, deadline=None)
    @given(stats_strategy)
    def test_assignment_complete_and_in_range(self, data):
        popularity, weights, k = data
        stats = _make_stats(popularity, weights)
        assignment = maxfair_from_stats(stats, n_clusters=k)
        assert assignment.is_complete()
        assert assignment.category_to_cluster.min() >= 0
        assert assignment.category_to_cluster.max() < k

    @settings(max_examples=50, deadline=None)
    @given(stats_strategy)
    def test_single_cluster_trivial(self, data):
        popularity, weights, _ = data
        stats = _make_stats(popularity, weights)
        assignment = maxfair_from_stats(stats, n_clusters=1)
        assert set(assignment.category_to_cluster.tolist()) == {0}

    @settings(max_examples=30, deadline=None)
    @given(stats_strategy)
    def test_reassign_never_worsens(self, data):
        popularity, weights, k = data
        stats = _make_stats(popularity, weights)
        rng = np.random.default_rng(0)
        assignment = Assignment(
            category_to_cluster=rng.integers(0, k, size=len(popularity)),
            n_clusters=k,
        )
        result = maxfair_reassign_from_stats(
            stats, assignment, fairness_threshold=0.99, max_moves=20
        )
        assert result.final_fairness >= result.initial_fairness - 1e-9
        # Trace strictly improves step over step.
        for earlier, later in zip(result.fairness_trace, result.fairness_trace[1:]):
            assert later > earlier


class TestDCRTProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),  # cluster
                st.integers(min_value=0, max_value=10),  # move counter
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_merge_order_independent(self, updates):
        """DCRT merge is a join-semilattice: any delivery order of the same
        update set converges to the same entry (eventual consistency of the
        lazy-rebalance metadata)."""
        entries = [DCRTEntry(cluster, counter) for cluster, counter in updates]
        forward = DCRT()
        backward = DCRT()
        for entry in entries:
            forward.merge(7, entry)
        for entry in reversed(entries):
            backward.merge(7, entry)
        assert forward.entry(7).move_counter == backward.entry(7).move_counter
        # Note: ties on move counter keep the first-arrived entry, so the
        # *counter* converges always; the cluster converges whenever
        # counters are unique, which the protocol guarantees (each move
        # increments the category's counter exactly once).
        unique_counters = len({e.move_counter for e in entries}) == len(entries)
        if unique_counters:
            assert forward.entry(7).cluster_id == backward.entry(7).cluster_id
