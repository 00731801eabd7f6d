"""Smoke + shape tests for the X1-X3 future-work experiments."""

import pytest

from repro.experiments import caching, cluster_config, granularity

SCALE = 0.05


class TestClusterConfig:
    def test_tradeoff_shapes(self):
        result = cluster_config.run(scale=SCALE)
        rows = {row.n_clusters: row for row in result.rows}
        ordered = [rows[c] for c in sorted(rows)]
        distinct = []
        for row in ordered:
            if not distinct or distinct[-1].actual_clusters != row.actual_clusters:
                distinct.append(row)
        assert len(distinct) >= 3
        # More clusters -> smaller clusters (tighter worst-case hop bound)
        # and lower per-node storage; fairness never improves.
        for earlier, later in zip(distinct, distinct[1:]):
            assert later.mean_cluster_size <= earlier.mean_cluster_size + 1
            assert later.mean_node_storage_mb <= earlier.mean_node_storage_mb + 1
            assert later.fairness <= earlier.fairness + 1e-6
        # Every configuration still balances well.
        assert all(row.fairness > 0.9 for row in distinct)
        assert distinct[-1].max_cluster_size <= distinct[0].max_cluster_size
        cluster_config.format_result(result)


class TestCaching:
    def test_cache_improves_balance(self, monkeypatch):
        monkeypatch.setattr(caching, "N_QUERIES", 3000)
        monkeypatch.setattr(caching, "CACHE_CAPACITIES", (0, 16))
        result = caching.run(scale=0.02)
        off, on = result.rows
        assert off.capacity == 0 and on.capacity == 16
        assert on.load_fairness > off.load_fairness
        assert on.hottest_share <= off.hottest_share
        assert off.cached_copies == 0
        assert on.cached_copies > 0
        caching.format_result(result)


class TestGranularity:
    def test_document_moves_are_cheaper(self):
        result = granularity.run(scale=SCALE)
        category = result.row("category")
        document = result.row("document")
        # Same start, both reach the target...
        assert category.initial_fairness == pytest.approx(
            document.initial_fairness, abs=1e-6
        )
        assert category.converged
        assert document.converged
        # ...but documents move far fewer bytes (only hot content travels),
        # at the price of more individual move operations.
        assert document.bytes_moved_mb < category.bytes_moved_mb / 5
        assert document.items_moved >= category.items_moved
        granularity.format_result(result)
