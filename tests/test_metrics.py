"""Tests for repro.metrics: load report cards, response stats, reporting."""

import numpy as np
import pytest

from repro.core.fairness import jain_fairness
from repro.metrics.load import fairness_decomposition, load_report
from repro.metrics.report import format_kv, format_series, format_table
from repro.metrics.response import QueryOutcome, summarize_responses


class TestLoadReport:
    def test_basic_counters(self):
        card = load_report({1: 10, 2: 10, 3: 10})
        assert card.n_nodes == 3
        assert card.total_requests == 30
        assert card.node_fairness == pytest.approx(1.0)
        assert card.max_node_load == 10
        assert card.mean_node_load == pytest.approx(10.0)
        assert card.cv == pytest.approx(0.0)

    def test_capacity_normalization(self):
        # Loads proportional to capacity are perfectly fair per-unit.
        loads = {1: 10, 2: 20}
        capacities = {1: 1.0, 2: 2.0}
        card = load_report(loads, node_capacities=capacities)
        assert card.node_fairness < 1.0
        assert card.node_fairness_normalized == pytest.approx(1.0)

    def test_cluster_fairness_splits_shared_nodes(self):
        loads = {1: 10, 2: 10}
        clusters = {1: {0}, 2: {0, 1}}  # node 2 serves two clusters
        card = load_report(loads, node_clusters=clusters)
        # cluster 0: 10 + 5, cluster 1: 5.
        expected = (15 + 5) ** 2 / (2 * (15**2 + 5**2))
        assert card.cluster_fairness == pytest.approx(expected)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            load_report({})

    def test_rows_render(self):
        card = load_report({1: 5})
        rows = dict(card.rows())
        assert rows["nodes"] == "1"


class TestFairnessDecomposition:
    """Planned -> realised Jain of load per capacity unit, in factors."""

    @staticmethod
    def _one_cluster(loads, capacities, weights):
        nodes = sorted(capacities)
        return fairness_decomposition(
            {n: {0: loads[n]} for n in nodes},
            capacities,
            {0: set(nodes)},
            weights,
        )

    def test_uniform_dispatch_at_equal_counts_scores_jain_of_inverse_capacity(self):
        capacities = {n: float(1 + n % 5) for n in range(50)}
        parts = self._one_cluster(
            dict.fromkeys(capacities, 40), capacities, dict.fromkeys(capacities, 1.0)
        )
        closed_form = jain_fairness([1.0 / c for c in capacities.values()])
        assert parts.observed == pytest.approx(closed_form)
        assert parts.capacity == pytest.approx(closed_form)
        assert parts.inter_cluster == pytest.approx(1.0)
        # Equal counts are exactly what uniform draws expect.
        assert parts.count_balance * parts.sampling_floor == pytest.approx(1.0)
        assert parts.product == pytest.approx(parts.observed)

    def test_capacity_weighted_dispatch_has_no_capacity_term(self):
        capacities = {n: float(1 + n % 5) for n in range(50)}
        parts = self._one_cluster(
            {n: 10 * int(c) for n, c in capacities.items()}, capacities, capacities
        )
        assert parts.capacity == pytest.approx(1.0)
        assert parts.observed == pytest.approx(1.0)

    @pytest.mark.parametrize("lam", [1.0, 4.0, 17.5, 44.0])
    def test_sampling_floor_is_lambda_over_lambda_plus_one(self, lam):
        capacities = dict.fromkeys(range(20), 1.0)
        loads = {n: lam for n in capacities}
        parts = self._one_cluster(loads, capacities, capacities)
        assert parts.sampling_floor == pytest.approx(lam / (lam + 1))

    def test_poisson_loads_sit_at_the_floor(self):
        lam, n_nodes = 12.0, 20_000
        capacities = dict.fromkeys(range(n_nodes), 1.0)
        draws = np.random.default_rng(4).poisson(lam, size=n_nodes)
        loads = dict(enumerate(draws.tolist()))
        parts = self._one_cluster(loads, capacities, capacities)
        assert parts.observed == pytest.approx(lam / (lam + 1), abs=0.003)
        assert parts.count_balance == pytest.approx(1.0, abs=0.003)

    def test_factors_multiply_to_the_observed_index(self):
        rng = np.random.default_rng(9)
        capacities = {n: float(rng.integers(1, 6)) for n in range(120)}
        members = {0: set(range(0, 70)), 1: set(range(50, 110))}  # 110+: none
        loads = {
            n: {
                k: int(rng.poisson(3 * capacities[n]))
                for k in (0, 1)
                if n in members[k]
            }
            for n in capacities
        }
        parts = fairness_decomposition(loads, capacities, members, capacities)
        assert parts.ceiling == pytest.approx(110 / 120)
        assert parts.product == pytest.approx(parts.observed)
        # Nodes 50-69 serve two clusters and collect two shares.
        per_unit = {0: 0.0, 1: 0.0}
        for n, per_cluster in loads.items():
            for k, load in per_cluster.items():
                per_unit[k] += load
        for k in per_unit:
            per_unit[k] /= sum(capacities[n] for n in members[k])
        shares = [
            sum(per_unit[k] for k in (0, 1) if n in members[k]) for n in range(110)
        ]
        assert parts.inter_cluster == pytest.approx(jain_fairness(shares))
        assert parts.cluster_fairness == pytest.approx(
            jain_fairness(list(per_unit.values()))
        )


class TestResponseStats:
    def _outcome(self, qid, hops=1, latency=0.1, results=1, failed=False):
        return QueryOutcome(
            query_id=qid,
            issued_at=1.0,
            first_response_at=1.0 + latency if results else None,
            first_response_hops=hops if results else None,
            results=results,
            wanted=1,
            failed=failed,
        )

    def test_success_accounting(self):
        stats = summarize_responses(
            [self._outcome(1), self._outcome(2), self._outcome(3, results=0)]
        )
        assert stats.n_queries == 3
        assert stats.n_succeeded == 2
        # Zero results without a protocol failure is *unanswered*, not failed.
        assert stats.n_failed == 0
        assert stats.n_unanswered == 1
        assert stats.success_rate == pytest.approx(2 / 3)

    def test_failed_only_counts_protocol_failures(self):
        stats = summarize_responses(
            [
                self._outcome(1),                          # succeeded
                self._outcome(2, results=0, failed=True),  # protocol failure
                self._outcome(3, results=0),               # empty catalog
            ]
        )
        assert stats.n_failed == 1
        assert stats.n_unanswered == 1
        assert stats.n_succeeded == 1
        assert (
            stats.n_succeeded + stats.n_failed + stats.n_unanswered
            == stats.n_queries
        )

    def test_unanswered_rendered_in_rows(self):
        stats = summarize_responses([self._outcome(1, results=0)])
        rows = dict(stats.rows())
        assert rows["unanswered"] == "1"
        assert rows["failed"] == "0"

    def test_hop_percentiles(self):
        outcomes = [self._outcome(i, hops=h) for i, h in enumerate([1, 1, 1, 5])]
        stats = summarize_responses(outcomes)
        assert stats.p50_hops == 1.0
        assert stats.max_hops == 5

    def test_latency(self):
        outcomes = [self._outcome(1, latency=0.25)]
        stats = summarize_responses(outcomes)
        assert stats.mean_latency == pytest.approx(0.25)

    def test_empty(self):
        stats = summarize_responses([])
        assert stats.n_queries == 0
        assert stats.success_rate == 0.0
        assert stats.mean_hops == 0.0

    def test_outcome_properties(self):
        good = self._outcome(1)
        assert good.succeeded
        assert good.latency == pytest.approx(0.1)
        bad = self._outcome(2, results=0)
        assert not bad.succeeded
        assert bad.latency is None

    def test_rows_render(self):
        stats = summarize_responses([self._outcome(1)])
        assert dict(stats.rows())["queries"] == "1"


class TestReportFormatting:
    def test_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [33, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        # Columns align: the separator matches the widest cell.
        assert "--" in lines[1]

    def test_table_with_title(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_series(self):
        text = format_series("theta", "fairness", [(0.4, 0.99), (0.8, 0.82)])
        assert "theta" in text
        assert "0.99" in text

    def test_kv(self):
        text = format_kv([("metric", "42")])
        assert "42" in text
