"""Composable, declarative workload scenarios (the scenario engine).

Specs (:mod:`repro.scenario.spec`) describe non-stationary workloads as
frozen dataclasses; the engine (:mod:`repro.scenario.engine`) compiles a
spec against a built world into one deterministic chaos
:class:`~repro.chaos.scenario.Schedule` of ``query`` entries and controls.
Same spec + seed ⇒ identical schedule; stationary specs reproduce
:func:`~repro.model.workload.make_query_workload` exactly.

Consumed by the SCENARIO experiment (:mod:`repro.experiments.scenario`).
"""

from repro.scenario.engine import (  # noqa: F401  (re-exported)
    designate_free_riders,
    generate_events,
    rate_at,
)
from repro.scenario.spec import (  # noqa: F401  (re-exported)
    DiurnalSpec,
    DriftSpec,
    FreeRiderSpec,
    MisbehaviorSpec,
    RegionalPartitionSpec,
    ScenarioSpec,
    SkewFlipSpec,
    standard_matrix,
)

__all__ = [
    "DiurnalSpec",
    "DriftSpec",
    "FreeRiderSpec",
    "MisbehaviorSpec",
    "RegionalPartitionSpec",
    "ScenarioSpec",
    "SkewFlipSpec",
    "designate_free_riders",
    "generate_events",
    "rate_at",
    "standard_matrix",
]
