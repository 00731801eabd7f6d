"""Top-level facade: one import for the common workflows.

The library's layers (:mod:`repro.model`, :mod:`repro.core`,
:mod:`repro.overlay`, :mod:`repro.experiments`) stay importable
directly, but most callers want one of two things:

* a live, balanced overlay — :func:`build_system`;
* a paper experiment by id — :func:`run_experiment` /
  :func:`list_experiments`.

::

    from repro import api

    system = api.build_system(scale=0.05, seed=11)
    outcomes = system.run_workload(
        api.make_query_workload(system.instance, 1000, seed=13)
    )
    result = api.run_experiment("F2", scale=0.05)
    print(api.format_experiment(result))
"""

from __future__ import annotations

from typing import Any

from repro.core.maxfair import maxfair
from repro.core.popularity import build_category_stats
from repro.core.replication import ReplicationPlan, plan_replication
from repro.experiments import REGISTRY, ExperimentResult, ExperimentSpec
from repro.model.system import SystemConfig, SystemInstance
from repro.model.system import build_system as build_instance
from repro.model.workload import make_query_workload, zipf_category_scenario
from repro.overlay.system import P2PSystem, P2PSystemConfig

__all__ = [
    # system construction
    "build_system",
    "build_world",
    "SystemConfig",
    "SystemInstance",
    "P2PSystem",
    "P2PSystemConfig",
    "make_query_workload",
    # experiments
    "run_experiment",
    "format_experiment",
    "list_experiments",
    "ExperimentResult",
    "ExperimentSpec",
]


def build_world(
    config: SystemConfig | None = None,
    *,
    scale: float = 0.02,
    seed: int = 7,
    n_reps: int = 2,
    hot_mass: float = 0.35,
) -> tuple[SystemInstance, Any, ReplicationPlan]:
    """``(instance, assignment, plan)`` — the balanced-world pipeline.

    Builds the instance (from an explicit :class:`SystemConfig`, or the
    paper's Zipf scenario at ``scale``/``seed`` when ``config`` is None),
    balances categories over clusters with MaxFair, and plans replication
    per Section 4.3.3.
    """
    if config is not None:
        instance = build_instance(config)
    else:
        instance = zipf_category_scenario(scale=scale, seed=seed)
    stats = build_category_stats(instance)
    assignment = maxfair(instance, stats=stats)
    plan = plan_replication(instance, assignment, n_reps=n_reps, hot_mass=hot_mass)
    return instance, assignment, plan


def build_system(
    config: SystemConfig | None = None,
    *,
    scale: float = 0.02,
    seed: int = 7,
    n_reps: int = 2,
    hot_mass: float = 0.35,
    replicate: bool = True,
    system_config: P2PSystemConfig | None = None,
) -> P2PSystem:
    """Build a booted :class:`P2PSystem` in one call.

    Runs the full pipeline — instance, category statistics, MaxFair
    assignment, replication plan, live overlay.  The intermediate
    artifacts stay reachable on the returned system (``system.instance``,
    ``system.assignment``, ``system.plan``, ``system.config``).

    ``replicate=False`` skips the replication plan (pure placement);
    ``system_config`` carries deployment tunables (cache capacity,
    super-peer mode, adaptation, reliability, ...).
    """
    instance, assignment, plan = build_world(
        config, scale=scale, seed=seed, n_reps=n_reps, hot_mass=hot_mass
    )
    return P2PSystem(
        instance,
        assignment,
        plan=plan if replicate else None,
        config=system_config,
    )


def run_experiment(name: str, **params: Any) -> ExperimentResult:
    """Run a registered experiment by id (``"F2"``, ``"fuzz"``, ...).

    ``params`` must match the experiment's ``params_cls`` fields; unknown
    names raise :class:`TypeError`, unknown ids :class:`ValueError`.
    """
    spec = REGISTRY.get(name.upper())
    if spec is None:
        raise ValueError(
            f"unknown experiment {name!r}; known ids: {', '.join(REGISTRY)}"
        )
    return spec.call(**params)


def format_experiment(result: ExperimentResult) -> str:
    """Render an :class:`ExperimentResult` the way the CLI would."""
    return REGISTRY[result.name].format_result(result)


def list_experiments() -> dict[str, str]:
    """Experiment id -> one-line description, in registry order."""
    return {name: spec.description for name, spec in REGISTRY.items()}
