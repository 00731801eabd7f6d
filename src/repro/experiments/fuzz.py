"""Seeded chaos fuzzing over the overlay (deterministic scenario sweep).

Not a paper figure: this experiment drives :mod:`repro.chaos` — for each
seed in ``[seed, seed + seeds)`` it generates a randomized fault schedule
(churn, loss ramps, partitions, publishes, query bursts, forced
rebalances), executes it against a freshly built overlay, and checks the
system-wide invariants after every quiescent step.  When a seed fails,
the first failing schedule is shrunk to a minimal reproducer and emitted
as a ready-to-paste pytest case.

Identical inputs produce identical schedules *and* identical invariant
verdicts, so a failing seed printed by CI replays exactly on a laptop::

    repro-experiments fuzz --fuzz-seeds 25
    repro-experiments fuzz --fuzz-seeds 1 --seed 17 --steps 60
    repro-experiments fuzz --features content,recovery
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.chaos import (
    ChaosReport,
    ScenarioConfig,
    emit_pytest_case,
    generate_schedule,
    run_schedule,
    shrink,
)

__all__ = ["FuzzResult", "run", "format_result"]

#: shrink the first failing schedule to a minimal pytest reproducer.
SHRINK_FAILING = True


@dataclass(slots=True)
class FuzzResult:
    """Outcome of one fuzzing sweep."""

    base_seed: int
    n_seeds: int
    n_steps: int
    check_invariants: bool
    #: the feature set every world and schedule of the sweep ran with.
    features: frozenset[str] = frozenset()
    reports: list[ChaosReport] = field(default_factory=list)
    #: shrunk reproducer for the first failing seed (None when all pass).
    minimal_repro: str | None = None
    #: (original entries, shrunk entries) of the reproducer.
    shrink_sizes: tuple[int, int] | None = None

    @property
    def failing_seeds(self) -> list[int]:
        return [report.seed for report in self.reports if not report.ok]

    @property
    def total_queries(self) -> int:
        return sum(report.outcomes_total for report in self.reports)

    @property
    def violations_by_invariant(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for report in self.reports:
            for name, count in report.invariant_counts.items():
                counts[name] = counts.get(name, 0) + count
        return counts


def run(
    seed: int = 0,
    seeds: int = 10,
    steps: int | None = None,
    check_invariants: bool = True,
    features: frozenset[str] = frozenset(),
) -> FuzzResult:
    """Fuzz ``seeds`` consecutive seeds starting at ``seed``.

    ``features`` (names from :data:`repro.chaos.FEATURES`) picks the world,
    the action groups and the invariants together — see
    :class:`~repro.chaos.ScenarioConfig`.  Each action group draws from
    its own RNG stream, so a seed's default entries are the same under
    every feature set.

    There is no ``scale``: the chaos world uses a fixed multi-cluster
    configuration — paper-scale knobs collapse to one cluster at
    fuzz-friendly sizes, which would make the ownership and rebalance
    invariants vacuous.

    A sweep that runs nothing must not read as a clean one, so
    ``seeds < 1`` or ``steps < 1`` raises :class:`ValueError`.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    if steps is not None and steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    kwargs = {} if steps is None else {"n_steps": steps}
    config = ScenarioConfig(features=features, **kwargs)
    result = FuzzResult(
        base_seed=seed,
        n_seeds=seeds,
        n_steps=config.n_steps,
        check_invariants=check_invariants,
        features=config.features,
    )
    for fuzz_seed in range(seed, seed + seeds):
        schedule = generate_schedule(fuzz_seed, config)
        result.reports.append(
            run_schedule(schedule, config, check_invariants=check_invariants)
        )
    obs.gauge("chaos.failing_seeds").set(len(result.failing_seeds))
    if result.failing_seeds and SHRINK_FAILING and check_invariants:
        first = result.failing_seeds[0]
        original = generate_schedule(first, config)
        small, report = shrink(original, config, max_runs=80)
        result.minimal_repro = emit_pytest_case(small, report, config)
        result.shrink_sizes = (len(original), len(small))
    return result


def format_result(result: FuzzResult) -> str:
    lines = [
        f"chaos fuzz: seeds {result.base_seed}.."
        f"{result.base_seed + result.n_seeds - 1}, "
        f"{result.n_steps} scheduled steps each, invariants "
        f"{'on' if result.check_invariants else 'off'}"
        + (
            f", features {','.join(sorted(result.features))}"
            if result.features
            else ""
        )
    ]
    for report in result.reports:
        lines.append(f"  {report.summary()}")
    lines.append(
        f"  total: {len(result.failing_seeds)}/{result.n_seeds} seeds failing, "
        f"{result.total_queries} queries issued"
    )
    if result.violations_by_invariant:
        parts = ", ".join(
            f"{name} x{count}"
            for name, count in sorted(result.violations_by_invariant.items())
        )
        lines.append(f"  violations: {parts}")
    if result.minimal_repro is not None:
        original, shrunk = result.shrink_sizes
        lines.append(
            f"  shrunk seed {result.failing_seeds[0]} from {original} to "
            f"{shrunk} entries; minimal reproducer:"
        )
        lines.append("")
        lines.append(result.minimal_repro)
    return "\n".join(lines)
