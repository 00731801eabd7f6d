"""Deterministic chaos harness: scenario fuzzing, invariants, replay.

One root seed drives everything: :func:`generate_schedule` expands it into
a randomized fault schedule drawn from the :data:`ACTIONS` registry (churn,
loss ramps, partitions, publishes, query bursts, forced rebalances, plus
the action groups of whichever :data:`FEATURES` the
:class:`ScenarioConfig` switches on), :func:`run_schedule` executes the
schedule against a freshly built overlay while an
:class:`InvariantChecker` — registered as a simulation quiescence hook —
asserts the :data:`INVARIANTS` registry's system-wide safety properties
after every drained step, and
:func:`shrink` reduces a failing schedule to a minimal reproducer that
:func:`emit_pytest_case` turns into a ready-to-paste regression test.

Everything is deterministic: the same seed produces the same schedule, the
same event interleaving, and the same invariant verdicts, which is what
makes recorded failures replayable.
"""

from repro.chaos.harness import ChaosReport, run_schedule
from repro.chaos.invariants import INVARIANTS, InvariantChecker, Violation
from repro.chaos.replay import emit_pytest_case, replay, shrink
from repro.chaos.scenario import (
    ACTIONS,
    FEATURES,
    Schedule,
    ScheduleEntry,
    ScenarioConfig,
    generate_schedule,
    parse_features,
)

__all__ = [
    "ACTIONS",
    "ChaosReport",
    "FEATURES",
    "INVARIANTS",
    "InvariantChecker",
    "Schedule",
    "ScheduleEntry",
    "ScenarioConfig",
    "Violation",
    "emit_pytest_case",
    "generate_schedule",
    "parse_features",
    "replay",
    "run_schedule",
    "shrink",
]
