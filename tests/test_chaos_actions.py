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
from repro.chaos.harness import ChaosReport, ChaosRunner
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

    def test_every_action_has_a_handler_and_every_handler_an_action(self):
        handlers = {
            name.removeprefix("_do_")
            for name in vars(ChaosRunner)
            if name.startswith("_do_")
        }
        assert handlers == set(ACTIONS)

    def test_groups_are_core_plus_features(self):
        assert set(GROUPS) | {"adaptive"} == set(FEATURES)
        assert len(_names("core")) == 14  # 13 drawn + the cooldown converge

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

    def test_fuzz_run_reports_the_feature_set(self, group):
        result = fuzz.run(
            seed=0, seeds=1, steps=12, features={group}, shrink_failing=False
        )
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
        before = runner.report.outcomes_total
        assert runner._do_flash_crowd(
            step=0, category=3, n=40, workload_seed=123
        )
        assert runner.report.outcomes_total - before == 40
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
            schedule, ChaosReport(seed=1, n_entries=len(schedule)), config
        )
        assert "features=['content', 'overload', 'recovery']" in source
        assert "weights" not in source and "query_burst', 5.0" not in source
        namespace = {}
        exec(compile(source, "<reproducer>", "exec"), namespace)
        namespace["test_chaos_repro_seed_1"]()  # replays clean
        assert eval(repr(config), {"ScenarioConfig": ScenarioConfig}) == config


class TestFullStackFindings:
    """Shrunk reproducers from the all-on fuzz cell (seeds 0-49): real
    protocol defects under feature *pairs*, tracked in ROADMAP aim 3(a).
    ``strict`` makes the fix announce itself."""

    @pytest.mark.xfail(
        strict=True,
        reason="overload x recovery: peers still map the category to the "
        "stale cluster after reconciliation",
    )
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

    @pytest.mark.xfail(
        strict=True,
        reason="content x scenario: a document stays one holder below the "
        "floor after healing runs dry",
    )
    def test_healing_reaches_the_floor_with_a_free_rider(self):
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
