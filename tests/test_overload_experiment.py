"""OVERLOAD experiment: graceful degradation instead of a goodput cliff.

The headline acceptance run (default window) is deterministic simulated
time, so the degradation shape itself is asserted: with protections on,
goodput at twice the saturating load stays near the peak; without them
the backlog outgrows the SLO and goodput collapses.
"""

import pytest

from repro.experiments import EXPERIMENTS, overload

from tests.helpers import row


class TestStructure:
    def test_registered(self):
        assert EXPERIMENTS["OVERLOAD"] is overload

    def test_small_run_shape(self):
        result = overload.run(loads=(1.0, 2.0), window=1.5, seed=11)
        assert result.seed == 11
        assert result.window_s == 1.5
        assert result.saturation_rate > 0
        assert len(result.rows) == 4  # 2 loads x (unprotected, protected)
        for load in (1.0, 2.0):
            for protected in (False, True):
                measured = row(result.rows, load=load, protected=protected)
                assert measured.n_queries >= 1
                assert measured.offered_rate == pytest.approx(
                    load * result.saturation_rate
                )
                assert 0.0 <= measured.timely_rate <= measured.success_rate <= 1.0
                assert measured.goodput >= 0.0
                assert measured.drain_s >= 0.0
        # Only the protected arm can shed or redirect.
        assert row(result.rows, load=2.0, protected=False).shed == 0
        assert row(result.rows, load=2.0, protected=False).redirected == 0

    def test_format_result_mentions_both_arms(self):
        result = overload.run(loads=(1.0, 2.0), window=1.5)
        text = overload.format_result(result)
        assert "OVERLOAD" in text
        assert "protected" in text
        assert "unprotected" in text
        assert "goodput" in text


class TestDegradationShape:
    def test_protection_flattens_the_cliff(self):
        """The acceptance criterion, at the experiment's real window.

        Deterministic (simulated clock), ~2s wall time: the protected arm
        retains >= 75% of its peak goodput at 2x saturation while the
        unprotected arm loses far more.
        """
        result = overload.run()
        assert result.peak_goodput(True) > 0
        assert result.degradation(True) >= 0.75
        assert result.degradation(False) <= 0.7
        assert result.degradation(True) > result.degradation(False)
        # The unprotected backlog blows the SLO by an order of magnitude.
        assert row(result.rows, load=2.0, protected=False).p99_latency > result.slo
        # Admission control is what buys the shape: the overflow was
        # redirected to replica holders instead of queueing unboundedly.
        protected_worst = row(result.rows, load=2.0, protected=True)
        assert protected_worst.redirected + protected_worst.shed > 0
        unprotected = row(result.rows, load=2.0, protected=False)
        assert protected_worst.p99_latency < unprotected.p99_latency
