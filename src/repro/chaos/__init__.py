"""Deterministic chaos harness: scenario fuzzing, invariants, replay.

One root seed drives everything: :func:`generate_schedule` expands it into
a fault schedule drawn from the :data:`ACTIONS` registry (the groups of
whichever :data:`FEATURES` the :class:`ScenarioConfig` switches on),
:func:`run_schedule` applies it through the :class:`Interpreter` to a
freshly built overlay while an :class:`InvariantChecker` asserts the
:data:`INVARIANTS` after every drained step, and :func:`shrink` reduces a
failure to a minimal reproducer that :func:`emit_pytest_case` renders as
a regression test.  The same seed gives the same schedule, interleaving
and verdicts, so recorded failures replay exactly.
"""

from repro.chaos.harness import ChaosReport, Interpreter, run_schedule
from repro.chaos.invariants import INVARIANTS, InvariantChecker, Violation
from repro.chaos.replay import emit_pytest_case, shrink
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
    "Interpreter",
    "InvariantChecker",
    "Schedule",
    "ScheduleEntry",
    "ScenarioConfig",
    "Violation",
    "emit_pytest_case",
    "generate_schedule",
    "parse_features",
    "run_schedule",
    "shrink",
]
