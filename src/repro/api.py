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
    print(api.format_experiment("F2", result))
"""

from __future__ import annotations

from typing import Any

from repro.core.replication import build_world
from repro.experiments import EXPERIMENTS
from repro.experiments.common import describe
from repro.model.system import SystemConfig, SystemInstance
from repro.model.workload import make_query_workload
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
]


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


def _experiment(name: str):
    module = EXPERIMENTS.get(name.upper())
    if module is None:
        raise ValueError(
            f"unknown experiment {name!r}; known ids: {', '.join(EXPERIMENTS)}"
        )
    return module


def run_experiment(name: str, **params: Any) -> Any:
    """Run an experiment by id (``"F2"``, ``"fuzz"``, ...).

    Returns the module's own result dataclass.  ``params`` are the named
    parameters of its ``run``; an unknown name raises :class:`TypeError`,
    an unknown id :class:`ValueError`.
    """
    return _experiment(name).run(**params)


def format_experiment(name: str, result: Any) -> str:
    """Render a :func:`run_experiment` result the way the CLI would."""
    return _experiment(name).format_result(result)


def list_experiments() -> dict[str, str]:
    """Experiment id -> one-line description, in registry order."""
    return {name: describe(module) for name, module in EXPERIMENTS.items()}
