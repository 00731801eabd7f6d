"""Smoke tests for the CACHE-QOS experiment and adaptive-replication fuzz.

The full experiment (CI's ``cache-qos`` job) pins the headline claims;
these tests run a shortened crowd so the suite stays fast, asserting the
structural properties that must hold at any scale: identical offered
load across arms, a static arm with no caches and no managed replicas,
an adaptive arm whose replica trace rises under the crowd and returns to
baseline, and goodput no worse than static.
"""

from repro.experiments import cache_qos

#: shortened phases shared by the smoke tests (the full-length defaults
#: run in CI's ``experiment-smoke`` job via ``cache_qos.smoke()``).
SHORT = dict(
    crowd_chunks=2, chunk_window=1.5, warmup_window=2.0, cooldown_rounds=8
)


class TestCacheQosExperiment:
    def test_run_and_format(self):
        result = cache_qos.run(seed=7, **SHORT)
        static, adaptive = result.static, result.adaptive

        # Both arms saw the exact same offered load.
        assert static.n_queries == adaptive.n_queries > 0

        # The static arm runs no adaptive machinery at all.
        assert static.cache_fills == 0
        assert static.cache_served_hits == 0
        assert (static.replicas_baseline, static.replicas_peak,
                static.replicas_final) == (0, 0, 0)

        # The adaptive arm grows replicas under the crowd and the slow
        # shrink retires every one of them afterwards (hysteresis works
        # in both directions).
        assert adaptive.replicas_baseline == 0
        assert adaptive.replicas_peak > 0
        assert adaptive.replicas_final == 0
        assert adaptive.cache_fills > 0

        # Extra servable copies never make things worse.
        assert adaptive.goodput >= static.goodput
        assert adaptive.success_rate >= static.success_rate

        text = cache_qos.format_result(result)
        assert "CACHE-QOS" in text
        assert "hysteresis" in text

    def test_deterministic(self):
        assert cache_qos.run(seed=7, **SHORT) == cache_qos.run(seed=7, **SHORT)


class TestAdaptiveFuzz:
    def test_adaptive_replication_seeds_run_clean(self):
        from repro.experiments import fuzz

        result = fuzz.run(
            seed=0,
            seeds=2,
            steps=8,
            features={"overload", "adaptive"},
            shrink_failing=False,
        )
        assert result.failing_seeds == []
        assert "features adaptive,overload" in fuzz.format_result(result)

    def test_feature_does_not_change_schedules(self):
        """``adaptive`` has no action group, so a seed replays the same
        fault sequence with or without the manager."""
        from repro.chaos import ScenarioConfig, generate_schedule

        base = ScenarioConfig(n_steps=12)
        adaptive = ScenarioConfig(n_steps=12, features={"adaptive"})
        assert generate_schedule(5, base) == generate_schedule(5, adaptive)

    def test_cli_flag(self, capsys):
        from repro.experiments.runner import main

        assert main([
            "fuzz", "--fuzz-seeds", "1", "--steps", "6",
            "--features", "overload,adaptive",
        ]) == 0
        out = capsys.readouterr().out
        assert "features adaptive,overload" in out
