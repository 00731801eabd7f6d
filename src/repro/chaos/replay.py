"""Schedule shrinking and reproducer emission.

:func:`shrink` reduces a failing schedule to something a human can read:
a cheap truncation to just past the first violation, then greedy
single-entry deletion, keeping any deletion after which the run still
violates one of the *original* invariants (a drop that swaps one failure
mode for an unrelated one is not a simplification).
:func:`emit_pytest_case` renders the result as a self-contained test.
"""

from __future__ import annotations

from repro.chaos.harness import ChaosReport, run_schedule
from repro.chaos.scenario import Schedule, ScenarioConfig

__all__ = ["shrink", "emit_pytest_case"]


def _still_fails(
    schedule: Schedule, config: ScenarioConfig | None, targets: set[str]
) -> ChaosReport | None:
    """The candidate's report if it reproduces a target violation."""
    report = run_schedule(schedule, config=config)
    if report.violated_invariants & targets:
        return report
    return None


def shrink(
    schedule: Schedule,
    config: ScenarioConfig | None = None,
    max_runs: int = 200,
) -> tuple[Schedule, ChaosReport]:
    """Greedily minimize a failing schedule.

    Returns the smallest schedule found that still violates one of the
    invariants the original run violated, together with that run's
    report.  Raises ``ValueError`` when the input schedule does not fail
    at all.  ``max_runs`` bounds the total number of replays (each replay
    builds and runs a full world).
    """
    base = run_schedule(schedule, config=config)
    if base.ok:
        raise ValueError(
            f"schedule for seed {schedule.seed} does not violate any "
            f"invariant; nothing to shrink"
        )
    targets = base.violated_invariants
    runs = 0

    # Cheap first cut: everything after the first violating step is noise
    # (structural violations are detected at the quiescent step that
    # caused them, so later entries cannot be the culprit).
    first_bad_step = min(v.step for v in base.violations)
    cut = sum(1 for e in schedule.entries if e.step <= first_bad_step)
    if cut < len(schedule.entries):
        candidate = schedule.truncated(cut)
        runs += 1
        report = _still_fails(candidate, config, targets)
        if report is not None:
            schedule, base = candidate, report

    # Greedy single-entry deletion to a fixed point.
    changed = True
    while changed and runs < max_runs:
        changed = False
        index = 0
        while index < len(schedule.entries) and runs < max_runs:
            candidate = schedule.without(index)
            runs += 1
            report = _still_fails(candidate, config, targets)
            if report is not None:
                schedule, base = candidate, report
                changed = True
                # same index now points at the next entry; retry it
            else:
                index += 1
    return schedule, base


def emit_pytest_case(
    schedule: Schedule,
    report: ChaosReport,
    config: ScenarioConfig | None = None,
) -> str:
    """A ready-to-paste pytest regression test for a shrunk failure.

    The emitted test replays the schedule and asserts *no* violations, so
    it fails on the buggy tree (reproducing the finding) and passes once
    the underlying defect is fixed.  The schedule is rendered by
    :meth:`Schedule.to_python`, the one serialisation of the vocabulary.
    """
    invariants = ", ".join(sorted(report.violated_invariants))
    config_line = (
        f"    config = {config!r}\n" if config is not None else "    config = None\n"
    )
    schedule_source = schedule.to_python(indent=4).lstrip()
    return (
        "# Auto-generated by repro.chaos.replay.emit_pytest_case.\n"
        "# Shrunk reproducer: fuzz seed "
        f"{schedule.seed} violated: {invariants}.\n"
        "from repro.chaos import (\n"
        "    ScenarioConfig,\n"
        "    Schedule,\n"
        "    ScheduleEntry,\n"
        "    run_schedule,\n"
        ")\n"
        "\n"
        "\n"
        f"def test_chaos_repro_seed_{schedule.seed}():\n"
        f"{config_line}"
        f"    schedule = {schedule_source}\n"
        "    report = run_schedule(schedule, config=config)\n"
        "    assert report.ok, \"\\n\".join(str(v) for v in report.violations)\n"
    )
