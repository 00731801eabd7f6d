"""Tests for the deterministic chaos harness (repro.chaos).

Covers the full loop the harness promises: seeded schedule generation is
reproducible, replays of the same schedule are bit-identical in their
observed outcomes, the invariant checker catches injected defects, and a
caught failure shrinks to a small schedule whose emitted pytest source is
valid Python.
"""

import pytest

from repro.chaos import (
    InvariantChecker,
    ScenarioConfig,
    Schedule,
    ScheduleEntry,
    emit_pytest_case,
    generate_schedule,
    run_schedule,
    shrink,
)
from repro.durability import DurabilityConfig
from repro.overlay.metadata import DCRT
from repro.overlay.system import P2PSystemConfig

from tests.helpers import build_live_system, violated


class TestScheduleGeneration:
    def test_same_seed_same_schedule(self, chaos_config):
        assert generate_schedule(7, chaos_config) == generate_schedule(
            7, chaos_config
        )

    def test_different_seeds_differ(self, chaos_config):
        assert generate_schedule(1, chaos_config) != generate_schedule(
            2, chaos_config
        )

    def test_cooldown_tail(self, chaos_config):
        """Every schedule ends heal -> loss off -> gossip -> converge, so
        the convergence invariant is checked on a healed network."""
        schedule = generate_schedule(3, chaos_config)
        tail = [entry.action for entry in schedule.entries[-4:]]
        assert tail == ["heal", "loss_ramp", "gossip", "converge"]
        assert schedule.entries[-3].params["target"] == 0.0

    def test_to_python_round_trips(self, chaos_config):
        schedule = generate_schedule(11, chaos_config)
        namespace = {"Schedule": Schedule, "ScheduleEntry": ScheduleEntry}
        rebuilt = eval(schedule.to_python(), namespace)
        assert rebuilt == schedule

    def test_shrink_helpers_preserve_seed(self, chaos_config):
        schedule = generate_schedule(5, chaos_config)
        assert schedule.without(0).seed == schedule.seed
        assert len(schedule.without(0)) == len(schedule) - 1
        assert schedule.truncated(3).entries == schedule.entries[:3]


class TestDeterministicReplay:
    def test_small_seeds_run_clean(self, chaos_config):
        for seed in range(3):
            report = run_schedule(generate_schedule(seed, chaos_config),
                                  config=chaos_config)
            assert report.ok, report.summary()
            assert report.entries_applied > 0

    def test_same_seed_twice_identical_results(self, chaos_config):
        """Acceptance: replaying a fuzz seed reproduces the exact same
        schedule and the exact same invariant-check results."""
        schedule = generate_schedule(9, chaos_config)
        first = run_schedule(schedule, config=chaos_config)
        second = run_schedule(schedule, config=chaos_config)
        assert first == second  # every field, including violations

    def test_shrink_rejects_passing_schedule(self, chaos_config):
        schedule = generate_schedule(0, chaos_config)
        with pytest.raises(ValueError):
            shrink(schedule, config=chaos_config)


class TestInvariantDetection:
    def test_move_counter_rollback_detected(self):
        _instance, system = build_live_system(scale=0.02, seed=61)
        checker = InvariantChecker(system)
        peer = system.alive_peers()[0]
        peer.dcrt.set(0, 1, move_counter=5)
        checker.check_structural()
        assert checker.violations == []
        peer.dcrt.set(0, 1, move_counter=2)  # counter goes backwards
        checker.check_structural()
        assert violated(checker) == {"move-counter-monotonic"}

    def test_vanished_document_detected(self):
        _instance, system = build_live_system(scale=0.02, seed=61)
        checker = InvariantChecker(system)
        checker.note_published(10**9)  # never actually stored anywhere
        checker.check_structural()
        assert "doc-conservation" in violated(checker)

    def test_lost_acknowledged_write_detected(self):
        """A document gone from a peer behind its journal's back is a lost
        acknowledged write, whether or not the peer just recovered."""
        _instance, system = build_live_system(
            scale=0.02,
            seed=61,
            config=P2PSystemConfig(
                seed=61, durability=DurabilityConfig(enabled=True)
            ),
        )
        checker = InvariantChecker(system)
        peer = system.alive_peers()[0]
        checker.check("no-acknowledged-write-loss")
        checker.check("recovery-convergence", node_id=peer.node_id)
        assert checker.violations == []
        lost = min(peer.docs)
        del peer.docs[lost]
        checker.check("no-acknowledged-write-loss")
        checker.check("recovery-convergence", node_id=peer.node_id)
        assert violated(checker) == {
            "no-acknowledged-write-loss", "recovery-convergence"
        }
        assert all(f"sample: [{lost}]" in v.detail for v in checker.violations)

    def test_quiescence_hook_fires_checks(self):
        """Registered as an on_quiescence hook, the checker catches a
        rollback without any explicit call from the test."""
        _instance, system = build_live_system(scale=0.02, seed=61)
        checker = InvariantChecker(system)
        peer = system.alive_peers()[0]
        peer.dcrt.set(0, 1, move_counter=5)
        unregister = system.sim.on_quiescence(checker.check_structural)
        try:
            system.run_gossip_rounds(1)
            baseline = violated(checker)
            peer.dcrt.set(0, 1, move_counter=1)
            system.run_gossip_rounds(1)
        finally:
            unregister()
        assert "move-counter-monotonic" not in baseline
        assert "move-counter-monotonic" in violated(checker)


class TestReliabilityActions:
    def test_ack_loss_and_retry_storm_keep_exactly_once(self, chaos_config):
        """Dropped acks and dropped requests force retransmission chains;
        retried publishes/transfers must never double-apply (the
        exactly-once-effects invariant runs at every quiescent step)."""
        from repro import obs

        entries = (
            ScheduleEntry(0, "ack_loss", {"probability": 0.45}),
            ScheduleEntry(1, "publish", {"rank": 3, "category": 1, "n_docs": 3}),
            ScheduleEntry(2, "query_burst", {"n": 10, "workload_seed": 11}),
            ScheduleEntry(3, "retry_storm", {"probability": 0.3}),
            ScheduleEntry(4, "publish", {"rank": 5, "category": 2, "n_docs": 2}),
            ScheduleEntry(5, "force_move", {"category": 1, "target_rank": 1}),
            ScheduleEntry(6, "heal", {}),
            ScheduleEntry(7, "gossip", {"rounds": 4}),
            ScheduleEntry(8, "converge", {}),
        )
        duplicates = obs.counter("reliability.duplicates_suppressed")
        before = duplicates.value
        report = run_schedule(Schedule(seed=9, entries=entries),
                              config=chaos_config)
        assert report.ok, report.summary()
        # The scenario actually exercised the dedup path.
        assert duplicates.value > before

    def test_heal_clears_kind_drop_overrides(self, chaos_config):
        from repro.chaos.harness import ChaosRunner

        schedule = Schedule(
            seed=3,
            entries=(
                ScheduleEntry(0, "ack_loss", {"probability": 0.3}),
                ScheduleEntry(1, "retry_storm", {"probability": 0.4}),
                ScheduleEntry(2, "heal", {}),
            ),
        )
        runner = ChaosRunner(schedule, chaos_config)
        runner.run()
        assert runner.system.network._kind_drop == {}


@pytest.fixture()
def buggy_merge():
    """Inject a last-writer-wins DCRT merge (drops the move-counter
    guard), restoring the real implementation afterwards."""
    original = DCRT.merge

    def bad_merge(self, category_id, entry):
        self._writable()[category_id] = entry
        return True

    DCRT.merge = bad_merge
    try:
        yield
    finally:
        DCRT.merge = original


class TestInjectedRegressionIsCaughtAndShrunk:
    # A longer horizon than the shared fixture: the stale-gossip rollback
    # needs a reassignment, a partition, and a heal to line up.  Seed 12
    # is a known trigger under the current action-weight table (adding or
    # reweighting actions reshuffles every schedule; rescan if it stops
    # firing).
    SEED = 12
    CONFIG = ScenarioConfig(
        n_docs=300,
        n_nodes=40,
        n_categories=8,
        n_clusters=3,
        n_steps=28,
        query_burst_max=10,
        min_alive=14,
    )

    def test_fuzz_catches_and_shrinks_the_bug(self, buggy_merge):
        schedule = generate_schedule(self.SEED, self.CONFIG)
        report = run_schedule(schedule, config=self.CONFIG)
        assert not report.ok
        assert report.violated_invariants == {"move-counter-monotonic"}

        small, small_report = shrink(schedule, config=self.CONFIG, max_runs=80)
        assert len(small) < len(schedule)
        assert small_report.violated_invariants == {"move-counter-monotonic"}

        source = emit_pytest_case(small, small_report, config=self.CONFIG)
        compile(source, "<reproducer>", "exec")  # valid Python
        assert f"def test_chaos_repro_seed_{schedule.seed}(" in source
        assert "run_schedule" in source

    def test_clean_tree_passes_the_same_schedule(self):
        """The same seed is clean without the injected bug, proving the
        violation comes from the defect, not the scenario."""
        report = run_schedule(generate_schedule(self.SEED, self.CONFIG),
                              config=self.CONFIG)
        assert report.ok, report.summary()


class TestEmittedReproducer:
    def test_emitted_source_replays_standalone(self, buggy_merge):
        """The emitted test body must be runnable as-is: exec it and call
        the generated function, expecting the assertion to fire while the
        bug is still injected."""
        schedule = generate_schedule(
            TestInjectedRegressionIsCaughtAndShrunk.SEED,
            TestInjectedRegressionIsCaughtAndShrunk.CONFIG,
        )
        small, report = shrink(
            schedule,
            config=TestInjectedRegressionIsCaughtAndShrunk.CONFIG,
            max_runs=40,
        )
        source = emit_pytest_case(
            small, report, config=TestInjectedRegressionIsCaughtAndShrunk.CONFIG
        )
        namespace = {}
        exec(compile(source, "<reproducer>", "exec"), namespace)
        test_fn = namespace[f"test_chaos_repro_seed_{schedule.seed}"]
        with pytest.raises(AssertionError):
            test_fn()


class TestFuzzExperiment:
    def test_run_and_format(self, chaos_config, monkeypatch):
        from repro.experiments import fuzz

        monkeypatch.setattr(fuzz, "SHRINK_FAILING", False)
        result = fuzz.run(seed=0, seeds=2, steps=8)
        assert result.n_seeds == 2
        assert result.failing_seeds == []
        text = fuzz.format_result(result)
        assert "seed 0: ok" in text

    def test_cli_entry(self, capsys):
        from repro.experiments.runner import main

        assert main(["fuzz", "--fuzz-seeds", "2", "--steps", "6"]) == 0
        out = capsys.readouterr().out
        assert "0/2 seeds failing" in out
