"""Smoke tests over every experiment module at tiny scale.

These pin (a) that every experiment runs end to end, (b) that the shapes
the paper reports actually hold on the reproduced system, and (c) that
``format_result`` renders without error (what the CLI prints).
"""

import inspect
import re
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments import (
    comparison,
    dynamics,
    figure2,
    figure3,
    figure4,
    figure5,
    intra_cluster,
    rebalance_cost,
    scaling,
    storage,
)


SCALE = 0.05  # tiny but structurally complete


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "F2", "F3", "F4", "F5", "T1", "T2", "T3", "E1", "E2", "E3",
            "X1", "X2", "X3", "FUZZ", "LOSS", "OVERLOAD", "CACHE-QOS",
            "SCENARIO", "HEAL", "RECOVERY", "WORLD",
        }

    def test_every_module_has_run_and_format(self):
        for module in EXPERIMENTS.values():
            assert callable(module.run)
            assert callable(module.format_result)

    @pytest.mark.parametrize("exp_id", EXPERIMENTS)
    def test_module_contract(self, exp_id):
        """The whole experiment contract: ``run(**named, all defaulted)``,
        ``format_result``, a one-line description, and no wrapper object."""
        module = EXPERIMENTS[exp_id]
        for param in inspect.signature(module.run).parameters.values():
            # Named only (the CLI introspects ``scale``/``seed``) and
            # defaulted (so ``run()`` is the reported experiment).
            assert param.kind in (
                param.POSITIONAL_OR_KEYWORD,
                param.KEYWORD_ONLY,
            ), param.name
            assert param.default is not param.empty, param.name
        assert callable(module.format_result)
        assert module.__doc__.strip().splitlines()[0].strip()
        assert not hasattr(module, "EXPERIMENT")

    def test_ci_smoke_matrix_is_every_module_with_a_smoke_gate(self):
        """An experiment that grows a ``smoke()`` gate cannot be left out
        of the ``experiment-smoke`` matrix in ci.yml (or linger in it)."""
        ci = Path(__file__).resolve().parent.parent / ".github/workflows/ci.yml"
        job = ci.read_text().split("  experiment-smoke:", 1)[1]
        matrix = re.search(r"experiment: \[([^\]]*)\]", job).group(1)
        gated = {
            module.__name__.rsplit(".", 1)[1]
            for module in EXPERIMENTS.values()
            if hasattr(module, "smoke")
        }
        assert {name.strip() for name in matrix.split(",")} == gated


class TestFigure2:
    def test_shape(self):
        result = figure2.run(scale=SCALE)
        # MaxFair keeps fairness very high (paper: 0.98 at full scale).
        assert result.achieved_fairness > 0.93
        assert len(result.normalized_popularity) >= 2
        text = figure2.format_result(result)
        assert "fairness" in text


class TestFigure3:
    def test_shape(self):
        result = figure3.run(scale=SCALE)
        assert result.achieved_fairness > 0.93
        figure3.format_result(result)


class TestFigure4:
    def test_shape(self, monkeypatch):
        monkeypatch.setattr(figure4, "THETAS", (0.4, 0.8))
        monkeypatch.setattr(figure4, "N_REPEATS", 2)
        result = figure4.run(scale=SCALE)
        for point in result.points:
            assert point.initial_fairness > 0.95
            assert point.final_fairness < point.initial_fairness
        # The perturbation hurts but stays "tolerable" (paper: >= 0.78 at
        # full scale; tiny instances are noisier, so bound loosely).
        assert min(p.final_fairness for p in result.points) > 0.5
        figure4.format_result(result)


class TestFigure5:
    def test_shape(self, monkeypatch):
        monkeypatch.setattr(figure5, "SEEDS", (3, 11))
        monkeypatch.setattr(figure5, "MAX_MOVES", 40)
        result = figure5.run(scale=SCALE)
        for run_ in result.runs:
            trace = run_.fairness_trace
            assert all(b > a for a, b in zip(trace, trace[1:]))
            assert trace[-1] >= figure5.UPPER_THRESHOLD
        assert result.all_converged
        # Single-digit reassignments in the paper (7-8); allow a few more.
        assert result.max_moves_needed <= 12
        figure5.format_result(result)


class TestScaling:
    def test_shape(self):
        result = scaling.run(scale=SCALE)
        assert result.min_fairness > 0.80
        strategies = dict(result.strategy_ablation)
        single_pass = {
            name: value
            for name, value in strategies.items()
            if name != "maxfair+refine"
        }
        assert strategies["maxfair"] >= max(single_pass.values()) - 1e-9
        # Local-search refinement never loses to the plain greedy.
        assert strategies["maxfair+refine"] >= strategies["maxfair"] - 1e-9
        # Fairness improves as categories grow for a fixed cluster count.
        by_clusters: dict[int, list[tuple[int, float]]] = {}
        for cell in result.grid:
            by_clusters.setdefault(cell.n_clusters, []).append(
                (cell.n_categories, cell.fairness)
            )
        for cells in by_clusters.values():
            cells.sort()
            assert cells[-1][1] >= cells[0][1] - 1e-6
        scaling.format_result(result)


class TestStorage:
    def test_paper_numbers(self):
        result = storage.run(scale=SCALE)
        gb = 1024**3
        assert result.size_per_category_bytes == pytest.approx(20_000 * 1024**2)
        assert result.base_bytes_per_node == pytest.approx(100 * 1024**2)
        # "< 10% of docs cover > 35% of the mass".
        assert result.hot_docs_count < 100
        assert result.top10_mass_theta08 > 0.35
        assert result.sim_storage_fairness > 0.5
        assert result.sim_max_node_bytes < 5 * result.sim_mean_node_bytes
        storage.format_result(result)


class TestRebalanceCost:
    def test_paper_numbers(self):
        result = rebalance_cost.run(scale=SCALE)
        mb = 1024**2
        assert result.bytes_per_category == 8000 * mb
        assert result.bytes_per_transfer == pytest.approx(16 * mb)
        assert result.engaged_pairs == 5000
        assert result.engaged_fraction == pytest.approx(0.025)
        # The simulated run broke the move into many small transfers
        # rather than one bulk copy.
        if result.sim_transfer_messages:
            assert result.sim_transfer_messages > 10
            assert result.sim_mean_transfer_bytes < result.bytes_per_category / 10
        rebalance_cost.format_result(result)


class TestComparison:
    def test_paper_claims(self, monkeypatch):
        monkeypatch.setattr(comparison, "N_QUERIES", 2000)
        result = comparison.run(scale=SCALE)
        clustered = result.row("clustered (paper)")
        chord = result.row("chord (DHT)")
        gnutella = result.row("gnutella (flood)")
        central = result.row("central index")
        # Bounded, small hop counts for the clustered architecture.
        assert clustered.mean_hops <= 3.0
        assert clustered.max_hops <= 5
        assert clustered.mean_hops < chord.mean_hops
        assert clustered.mean_hops < gnutella.mean_hops
        # Better load fairness than hash placement or flooding.
        assert clustered.load_fairness > chord.load_fairness
        assert clustered.load_fairness > gnutella.load_fairness
        # The central index's hottest node absorbs ~half of everything.
        assert central.hottest_share > 0.4
        assert central.hottest_share > 10 * clustered.hottest_share
        # E1a: flooding reliably finds single-copy content but at hundreds
        # of messages per query; k random walkers bound the message cost
        # and pay in success rate (the [7] trade-off).
        by_strategy = {row.strategy: row for row in result.search_rows}
        flood, walk = by_strategy["flood"], by_strategy["random_walk"]
        assert flood.success_rate > walk.success_rate
        assert walk.mean_messages < flood.mean_messages
        assert flood.mean_messages > 100
        comparison.format_result(result)


class TestIntraCluster:
    def test_replication_monotone(self, monkeypatch):
        monkeypatch.setattr(intra_cluster, "N_QUERIES", 2000)
        monkeypatch.setattr(intra_cluster, "HOT_MASS_SETTINGS", (0.0, 0.35))
        result = intra_cluster.run(scale=SCALE)
        bare, hot = result.rows
        assert hot.expected_fairness > bare.expected_fairness
        assert hot.observed_fairness > bare.observed_fairness
        assert hot.mean_storage_mb > bare.mean_storage_mb
        intra_cluster.format_result(result)


class TestDynamics:
    def test_full_loop(self, monkeypatch):
        monkeypatch.setattr(dynamics, "QUERIES_PER_ROUND", 1500)
        monkeypatch.setattr(dynamics, "ROUNDS_AFTER_CROWD", 2)
        monkeypatch.setattr(dynamics, "CHURN_LEAVES", 4)
        monkeypatch.setattr(dynamics, "CHURN_JOINS", 2)
        result = dynamics.run(scale=0.02)
        labels = [r.label for r in result.rounds]
        assert labels[0] == "baseline"
        assert labels[-1] == "post-churn"
        # The baseline period needs no rebalancing, and the system ends
        # at least as fair as the first post-crowd period.
        assert not result.rounds[0].rebalanced
        assert (
            result.rounds[-1].observed_fairness
            >= result.rounds[1].observed_fairness - 0.05
        )
        # Query success stays high throughout churn and rebalancing.
        assert all(r.query_success_rate > 0.9 for r in result.rounds)
        # Metadata eventually agrees with the authoritative assignment.
        assert result.final_dcrt_agreement > 0.95
        dynamics.format_result(result)
