"""The chaos registries: actions (groups, per-group RNG streams,
composition) and invariants (groups, triggers, check order).

One registry (``repro.chaos.ACTIONS``) names every action, its group and
its parameter draw.  ``core`` keeps the ``"chaos.schedule"`` stream, so
default schedules (and the goldens and reproducers recorded from them)
never move; each feature group draws from ``"chaos.schedule.<group>"``,
so switching a group on only *inserts* entries.  The other
(``repro.chaos.INVARIANTS``) names every invariant, the group whose
presence switches it on and the event that triggers it.
"""

import hashlib
from itertools import permutations

import numpy as np
import pytest

from repro.chaos import (
    ACTIONS,
    FEATURES,
    INVARIANTS,
    ScenarioConfig,
    Schedule,
    ScheduleEntry,
    emit_pytest_case,
    generate_schedule,
    run_schedule,
)
from repro.chaos.harness import ChaosReport, ChaosRunner, Interpreter
from repro.chaos.invariants import GROUPS as INVARIANT_GROUPS
from repro.chaos.scenario import FLASH_CROWD_MAX
from repro.experiments import fuzz

#: the feature groups that own actions (``adaptive`` only changes the world).
GROUPS = tuple(sorted({a.group for a in ACTIONS.values()} - {"core"}))

#: sha256(to_python())[:16] of ``generate_schedule(seed, ScenarioConfig())``
#: for seeds 0-9, computed at the commit before the registry landed.
DEFAULT_DIGESTS = (
    "be250e310c2fbd7d",
    "b06c42f4ed26c76b",
    "152931139a3f65e9",
    "321a1b8311e19a25",
    "6ac8bb2399fefa4f",
    "dd8cee49cdaf2fdf",
    "336a5f0408f6d0da",
    "f73f5b84f440a1b3",
    "5af11cdc04d8368b",
    "b3ecb1d7a9c48c58",
)

#: the same digest of ``generate_schedule(seed, ScenarioConfig(features=
#: FEATURES))`` for seeds 0-4, computed at the commit before scenario
#: controls became chaos entries: pins every feature group's draws.
FEATURE_DIGESTS = (
    "73aa8505a4b88129",
    "e6e33fe0b364dc9a",
    "c6f241f51439ff95",
    "5022c859431592f4",
    "1b17301d26630fe9",
)

#: sha256(emit_pytest_case(...))[:16] of a clean three-step all-but-
#: adaptive schedule for seeds 0-2, from the same commit: the emitted
#: reproducer is ``Schedule.to_python`` inside a fixed test template.
REPRODUCER_DIGESTS = ("89876a3003bc2eeb", "14d5a2bfca17f4b2", "4c6b0ed4ad8c6246")

_SMALL_WORLD = dict(
    n_docs=150, n_nodes=24, n_categories=8, n_clusters=3, min_alive=10
)


#: the 22 invariants in the order the pre-registry module documented them;
#: the ``quiescence`` ones among them are its ``check_structural`` chain,
#: top to bottom, which check counts and metric goldens depend on.
PRE_REGISTRY_ORDER = (
    "unique-ownership",
    "move-counter-monotonic",
    "doc-conservation",
    "holder-consistency",
    "membership-consistency",
    "exactly-once-effects",
    "query-termination",
    "gossip-convergence",
    "fairness-bound",
    "service-queue-bound",
    "overload-conservation",
    "overload-drain",
    "retry-budget-no-overdraft",
    "replication-bounds",
    "response-integrity",
    "manifest-consistency",
    "fetch-integrity",
    "chunk-availability",
    "no-sole-holder-loss",
    "no-acknowledged-write-loss",
    "single-owner-per-epoch",
    "recovery-convergence",
)

#: the action that arms the integrity audit, then every action that fires
#: an event-driven invariant; ``converge`` last, as in every cooldown.
_TRIGGERS = (
    "misbehave", "query_burst", "adapt", "graceful_shutdown", "power_loss",
    "split_brain_heal", "converge",
)


def _config(*features, n_steps=30, **overrides):
    return ScenarioConfig(features=features, n_steps=n_steps, **overrides)


def _names(*groups):
    return {name for name, action in ACTIONS.items() if action.group in groups}


class TestRegistry:
    def test_default_schedules_match_the_parent_commit(self):
        for seed, digest in enumerate(DEFAULT_DIGESTS):
            source = generate_schedule(seed, ScenarioConfig()).to_python()
            assert hashlib.sha256(source.encode()).hexdigest()[:16] == digest

    def test_feature_schedules_match_the_parent_commit(self):
        config = ScenarioConfig(features=FEATURES)
        for seed, digest in enumerate(FEATURE_DIGESTS):
            source = generate_schedule(seed, config).to_python()
            assert hashlib.sha256(source.encode()).hexdigest()[:16] == digest

    def test_emitted_reproducers_match_the_parent_commit(self):
        config = ScenarioConfig(
            n_steps=3, features=["recovery", "overload", "scenario"]
        )
        for seed, digest in enumerate(REPRODUCER_DIGESTS):
            schedule = generate_schedule(seed, config)
            report = ChaosReport(seed=seed)
            source = emit_pytest_case(schedule, report, config)
            assert hashlib.sha256(source.encode()).hexdigest()[:16] == digest

    def test_every_action_has_a_handler_and_every_handler_an_action(self):
        handlers = {
            name.removeprefix("_do_")
            for name in vars(Interpreter)
            if name.startswith("_do_")
        }
        assert handlers == set(ACTIONS)

    def test_groups_are_core_plus_features(self):
        assert set(GROUPS) | {"adaptive"} == set(FEATURES)
        # 13 drawn + the cooldown converge + the compiled scenario query
        assert len(_names("core")) == 15

    def test_features_are_validated_and_recovery_implies_content(self):
        assert _config("recovery").features == {"recovery", "content"}
        assert _config().features == ScenarioConfig(features="").features
        with pytest.raises(ValueError, match="bogus.*known: overload"):
            _config("content", "bogus")

    def test_adaptive_has_no_actions_so_schedules_do_not_move(self):
        assert generate_schedule(5, _config()) == generate_schedule(
            5, _config("adaptive")
        )


class TestInvariantRegistry:
    def test_registration_order_is_the_pre_registry_check_order(self):
        assert tuple(INVARIANTS) == PRE_REGISTRY_ORDER

    @pytest.mark.parametrize("name", INVARIANTS)
    def test_entry_is_complete(self, name):
        entry = INVARIANTS[name]
        assert entry.statement and "\n" not in entry.statement
        assert entry.group in INVARIANT_GROUPS
        # quiescence, a finished workload, or the chaos action(s) after
        # which the harness calls ``checker.check(name, ...)``.
        events = set(entry.when.split("/"))
        assert events <= {"quiescence", "workload"} | set(ACTIONS)


@pytest.mark.parametrize("group", GROUPS)
class TestGroup:
    def test_actions_appear_exactly_when_the_group_is_on(self, group):
        seen = {
            entry.action
            for seed in range(12)
            for entry in generate_schedule(seed, _config(group)).entries
        }
        assert seen - _names("core") == _names(*_config(group).features)
        for seed in range(4):
            schedule = generate_schedule(seed, _config())
            assert {e.action for e in schedule.entries} <= _names("core")

    def test_params_are_bounded_json_safe_scalars(self, group):
        # ScheduleEntry reprs must stay eval-able for reproducer emission.
        config = _config(group, n_steps=60)
        for entry in generate_schedule(3, config).entries:
            for value in entry.params.values():
                assert isinstance(value, (int, float, str, bool))
            assert eval(repr(entry), {"ScheduleEntry": ScheduleEntry}) == entry
            if entry.action == "flash_crowd":
                assert 0 <= entry.params["category"] < config.n_categories
                assert 30 <= entry.params["n"] <= FLASH_CROWD_MAX

    def test_schedules_run_clean_and_replay_identically(self, group):
        config = _config(group, n_steps=20)
        for seed in range(2):
            schedule = generate_schedule(seed, config)
            report = run_schedule(schedule, config)
            assert report.ok, f"seed {seed}: {report.summary()}"
        assert run_schedule(schedule, config) == report

    def test_fuzz_run_reports_the_feature_set(self, group, monkeypatch):
        monkeypatch.setattr(fuzz, "SHRINK_FAILING", False)
        result = fuzz.run(seed=0, seeds=1, steps=12, features={group})
        assert group in result.features
        assert not result.failing_seeds
        assert result.total_queries > 0
        names = ",".join(sorted(result.features))
        assert f"features {names}" in fuzz.format_result(result)


class TestComposition:
    """A | B is the merge of A and B: no group shifts another's draws."""

    @pytest.mark.parametrize("a, b", permutations(GROUPS, 2))
    def test_pair_restricted_to_one_side_is_that_side(self, a, b):
        alone = _config(a)
        kept = _names("core", *alone.features)
        for seed in range(3):
            both = generate_schedule(seed, _config(a, b)).entries
            assert (
                tuple(e for e in both if e.action in kept)
                == generate_schedule(seed, alone).entries
            )

    def test_all_on_restricted_to_core_is_the_default_schedule(self):
        everything = generate_schedule(4, _config(*FEATURES)).entries
        assert (
            tuple(e for e in everything if e.action in _names("core"))
            == generate_schedule(4, _config()).entries
        )


class TestWorlds:
    def test_features_pick_the_subsystems(self):
        def system(*features):
            config = _config(*features, n_steps=2, **_SMALL_WORLD)
            return ChaosRunner(generate_schedule(0, config), config).system

        plain, full = system(), system(*FEATURES)
        assert plain.subsystems == []
        assert sorted(plain.rounds) == ["detector", "gossip"]
        assert full.config.service.enabled
        assert None not in full.subsystems
        assert full.subsystems == [full.recovery, full.replication, full.content]
        assert list(full.rounds)[2:] == ["reconciliation", "replication", "healing"]
        assert full.config.reliability.overload_protected

    def test_flash_crowd_action_issues_and_accounts_queries(self):
        config = _config("overload", n_steps=2, **_SMALL_WORLD)
        runner = ChaosRunner(generate_schedule(0, config), config)
        interpreter = runner.interpreter
        before = interpreter.outcomes_total
        assert interpreter.apply(ScheduleEntry(0, "flash_crowd", {
            "category": 3, "n": 40, "workload_seed": 123,
        }))
        assert interpreter.outcomes_total - before == 40
        served = sum(
            peer.service_snapshot()["offered"]
            for peer in runner.system.alive_peers()
            if peer.service_snapshot() is not None
        )
        assert served > 0

    @pytest.mark.parametrize(
        "features, groups",
        [
            pytest.param((), (), id="none"),
            pytest.param(("overload",), ("overload",), id="overload"),
            pytest.param(("adaptive",), ("replication",), id="adaptive"),
            pytest.param(("scenario",), ("integrity",), id="scenario"),
            pytest.param(("content",), ("content",), id="content"),
            pytest.param(("recovery",), ("content", "recovery"), id="recovery"),
            pytest.param(FEATURES, tuple(INVARIANT_GROUPS), id="all"),
        ],
    )
    def test_world_runs_exactly_its_groups_invariants(self, features, groups):
        """Every trigger fires once; what ran is ``core`` plus the groups
        the features built — each such entry, and nothing else."""
        config = _config(*features, **_SMALL_WORLD)
        on = {"core", *groups}
        wanted = {name for name, e in INVARIANTS.items() if e.group in on}
        events = {"misbehave"} if "integrity" in on else set()
        for name in wanted:
            events.update(INVARIANTS[name].when.split("/"))
        events.add("query_burst")  # the "workload" event
        rng = np.random.default_rng(0)
        schedule = Schedule(
            seed=3,
            entries=tuple(
                ScheduleEntry(step, action, ACTIONS[action].draw(rng, config))
                for step, action in enumerate(
                    action for action in _TRIGGERS if action in events
                )
            ),
        )
        runner = ChaosRunner(schedule, config)
        ran = []
        check = runner.checker.check
        runner.checker.check = lambda name, *args, **kwargs: (
            ran.append(name), check(name, *args, **kwargs)
        )
        assert runner.run().entries_applied == len(schedule)
        assert set(ran) == wanted
        # ... and the quiescence ones ran in registry order, every pass.
        structural = [n for n in ran if INVARIANTS[n].when == "quiescence"]
        per_pass = [n for n in PRE_REGISTRY_ORDER if n in set(structural)]
        assert structural[-len(per_pass):] == per_pass


class TestEmittedReproducer:
    def test_non_default_world_evaluates_without_a_weights_literal(self):
        config = _config("recovery", "overload", n_steps=3)
        schedule = generate_schedule(1, config)
        source = emit_pytest_case(
            schedule, ChaosReport(seed=1), config
        )
        assert "features=['content', 'overload', 'recovery']" in source
        assert "weights" not in source and "query_burst', 5.0" not in source
        namespace = {}
        exec(compile(source, "<reproducer>", "exec"), namespace)
        namespace["test_chaos_repro_seed_1"]()  # replays clean
        assert eval(repr(config), {"ScenarioConfig": ScenarioConfig}) == config


class TestFullStackFindings:
    """Shrunk reproducers from the all-on fuzz cell: protocol defects
    under feature *pairs*, tracked in ROADMAP item 1.  An open one is
    ``xfail(strict)``, so its fix announces itself; a fixed one stays as
    a regression test."""

    def test_split_brain_reconciles_in_an_overload_world(self):
        config = ScenarioConfig(features=["content", "overload", "recovery"])
        schedule = Schedule(
            seed=2,
            entries=(
                ScheduleEntry(step=17, action='partition', params={'fraction': 0.269, 'salt': 371669}),
                ScheduleEntry(step=18, action='force_move', params={'category': 9, 'target_rank': 614379}),
                ScheduleEntry(step=22, action='query_burst', params={'n': 7, 'workload_seed': 459768412}),
                ScheduleEntry(step=22, action='split_brain_heal', params={'category': 4, 'fraction': 0.353, 'salt': 356921}),
            ),
        )
        report = run_schedule(schedule, config=config)
        assert report.ok, "\n".join(str(v) for v in report.violations)

    def test_split_brain_reconciles_under_a_retry_storm(self):
        # All-on seed 22, shrunk under the two features it needs: the
        # fenced reassign notices must get through although an ack-loss
        # retry storm has emptied the retry budgets and opened breakers.
        config = ScenarioConfig(features=["content", "overload", "recovery"])
        schedule = Schedule(
            seed=22,
            entries=(
                ScheduleEntry(step=10, action='join', params={'capacity': 4, 'category': 8, 'n_docs': 2}),
                ScheduleEntry(step=11, action='retry_storm', params={'probability': 0.529}),
                ScheduleEntry(step=11, action='split_brain_heal', params={'category': 10, 'fraction': 0.23, 'salt': 192616}),
                ScheduleEntry(step=13, action='force_move', params={'category': 9, 'target_rank': 978496}),
                ScheduleEntry(step=14, action='publish', params={'rank': 428683, 'category': 6, 'n_docs': 1}),
                ScheduleEntry(step=14, action='split_brain_heal', params={'category': 11, 'fraction': 0.243, 'salt': 603125}),
            ),
        )
        report = run_schedule(schedule, config=config)
        assert report.ok, "\n".join(str(v) for v in report.violations)

    def test_split_brain_reconciles_after_power_losses_under_loss(self):
        # All-on seed 43, shrunk under adaptive + overload + recovery.  Query
        # answers are not acked, so only control traffic refills retry
        # budgets and closes breakers; the fenced reassign notices must get
        # through regardless.
        config = ScenarioConfig(features=["adaptive", "content", "overload", "recovery"])
        schedule = Schedule(
            seed=43,
            entries=(
                ScheduleEntry(step=1, action='query_burst', params={'n': 17, 'workload_seed': 2046358479}),
                ScheduleEntry(step=2, action='loss_ramp', params={'target': 0.069, 'steps': 1}),
                ScheduleEntry(step=4, action='adapt', params={}),
                ScheduleEntry(step=6, action='graceful_shutdown', params={'rank': 973107}),
                ScheduleEntry(step=7, action='flash_crowd', params={'category': 3, 'n': 39, 'workload_seed': 1201977107}),
                ScheduleEntry(step=9, action='retry_storm', params={'probability': 0.298}),
                ScheduleEntry(step=10, action='publish', params={'rank': 68756, 'category': 2, 'n_docs': 2}),
                ScheduleEntry(step=11, action='query_burst', params={'n': 17, 'workload_seed': 897197650}),
                ScheduleEntry(step=13, action='gossip', params={'rounds': 2}),
                ScheduleEntry(step=15, action='join', params={'capacity': 4, 'category': 1, 'n_docs': 0}),
                ScheduleEntry(step=15, action='power_loss', params={'rank': 683319}),
                ScheduleEntry(step=16, action='adapt', params={}),
                ScheduleEntry(step=16, action='regional_partition', params={'region': 0}),
                ScheduleEntry(step=17, action='power_loss', params={'rank': 222056}),
                ScheduleEntry(step=22, action='publish', params={'rank': 291436, 'category': 11, 'n_docs': 1}),
                ScheduleEntry(step=22, action='split_brain_heal', params={'category': 8, 'fraction': 0.286, 'salt': 667522}),
            ),
        )
        report = run_schedule(schedule, config=config)
        assert report.ok, "\n".join(str(v) for v in report.violations)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 1(iv): a join lost to a partition is never restarted",
    )
    def test_join_lost_to_a_partition_is_restarted(self):
        # All-on seed 24, shrunk under every feature.  The second free
        # rider joins through a node the regional partition cut off; its
        # join_request is dead-lettered and nothing starts the join again,
        # so it ends alive with the default DCRT rows and no membership.
        config = ScenarioConfig(features=['adaptive', 'content', 'overload', 'recovery', 'scenario'])
        schedule = Schedule(
            seed=24,
            entries=(
                ScheduleEntry(step=4, action='free_rider_join', params={'capacity': 4}),
                ScheduleEntry(step=8, action='join', params={'capacity': 3, 'category': 7, 'n_docs': 2}),
                ScheduleEntry(step=9, action='leave', params={'rank': 825005}),
                ScheduleEntry(step=11, action='regional_partition', params={'region': 0}),
                ScheduleEntry(step=15, action='free_rider_join', params={'capacity': 5}),
                ScheduleEntry(step=16, action='crash', params={'rank': 47616}),
                ScheduleEntry(step=22, action='power_loss', params={'rank': 91133}),
                ScheduleEntry(step=43, action='converge', params={}),
            ),
        )
        report = run_schedule(schedule, config=config)
        assert report.ok, "\n".join(str(v) for v in report.violations)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 1(iv): a join lost to a partition is never restarted",
    )
    def test_empty_handed_join_lost_to_a_partition_is_restarted(self):
        # All-on seed 28, shrunk under every feature: the same family.
        # Node 63 joins with no documents while a partition is up and ends
        # with the default DCRT rows and no cluster.
        config = ScenarioConfig(features=['adaptive', 'content', 'overload', 'recovery', 'scenario'])
        schedule = Schedule(
            seed=28,
            entries=(
                ScheduleEntry(step=1, action='crash', params={'rank': 63460}),
                ScheduleEntry(step=4, action='join', params={'capacity': 4, 'category': 1, 'n_docs': 2}),
                ScheduleEntry(step=4, action='free_rider_join', params={'capacity': 2}),
                ScheduleEntry(step=5, action='crash', params={'rank': 310061}),
                ScheduleEntry(step=7, action='join', params={'capacity': 3, 'category': 9, 'n_docs': 1}),
                ScheduleEntry(step=12, action='leave', params={'rank': 812820}),
                ScheduleEntry(step=16, action='partition', params={'fraction': 0.336, 'salt': 235636}),
                ScheduleEntry(step=18, action='join', params={'capacity': 1, 'category': 5, 'n_docs': 0}),
                ScheduleEntry(step=26, action='crash', params={'rank': 517962}),
                ScheduleEntry(step=31, action='power_loss', params={'rank': 777179}),
                ScheduleEntry(step=43, action='converge', params={}),
            ),
        )
        report = run_schedule(schedule, config=config)
        assert report.ok, "\n".join(str(v) for v in report.violations)

    def test_healing_reaches_the_floor_with_a_free_rider(self):
        # All-on seed 26, shrunk under content + scenario.  Doc 239 sits at
        # the floor when chunk 0 of node 54's copy is corrupted (step 25);
        # node 43, its other holder, then leaves (step 33).  While the
        # corrupt copy counted as a holder, healing fetched from it until
        # every attempt was exhausted.  A healing round now scrubs a
        # corrupt copy that has another live holder and re-copies the
        # document from an intact one; the free rider is a bystander.
        config = ScenarioConfig(features=["content", "scenario"])
        schedule = Schedule(
            seed=26,
            entries=(
                ScheduleEntry(step=0, action='publish', params={'rank': 530579, 'category': 5, 'n_docs': 2}),
                ScheduleEntry(step=3, action='join', params={'capacity': 4, 'category': 6, 'n_docs': 2}),
                ScheduleEntry(step=5, action='free_rider_join', params={'capacity': 4}),
                ScheduleEntry(step=6, action='publish', params={'rank': 644564, 'category': 10, 'n_docs': 3}),
                ScheduleEntry(step=8, action='crash', params={'rank': 624770}),
                ScheduleEntry(step=11, action='crash', params={'rank': 724591}),
                ScheduleEntry(step=14, action='leave', params={'rank': 167989}),
                ScheduleEntry(step=15, action='leave', params={'rank': 281961}),
                ScheduleEntry(step=16, action='crash', params={'rank': 214664}),
                ScheduleEntry(step=18, action='leave', params={'rank': 207189}),
                ScheduleEntry(step=21, action='join', params={'capacity': 3, 'category': 4, 'n_docs': 1}),
                ScheduleEntry(step=22, action='crash', params={'rank': 425199}),
                ScheduleEntry(step=25, action='corrupt_chunk', params={'rank': 783951, 'doc_rank': 605199, 'chunk_rank': 8}),
                ScheduleEntry(step=31, action='join', params={'capacity': 1, 'category': 8, 'n_docs': 2}),
                ScheduleEntry(step=32, action='graceful_shutdown', params={'rank': 736679}),
                ScheduleEntry(step=33, action='leave', params={'rank': 8214}),
                ScheduleEntry(step=43, action='converge', params={}),
            ),
        )
        report = run_schedule(schedule, config=config)
        assert report.ok, "\n".join(str(v) for v in report.violations)
