"""Top-level facade: one import for the common workflows.

The library's layers (:mod:`repro.model`, :mod:`repro.core`,
:mod:`repro.overlay`) stay importable directly, but most callers want a
live, balanced overlay — :func:`build_system`::

    from repro import api

    system = api.build_system(scale=0.05, seed=11)
    outcomes = system.run_workload(
        api.make_query_workload(system.instance, 1000, seed=13)
    )

A paper experiment runs from the command line
(``python -m repro.experiments F2 --scale 0.05``).
"""

from __future__ import annotations

from repro.core.replication import build_world
from repro.model.system import SystemConfig, SystemInstance
from repro.model.workload import make_query_workload
from repro.overlay.system import P2PSystem, P2PSystemConfig

__all__ = [
    "build_system",
    "build_world",
    "SystemConfig",
    "SystemInstance",
    "P2PSystem",
    "P2PSystemConfig",
    "make_query_workload",
]


def build_system(
    config: SystemConfig | None = None,
    *,
    scale: float = 0.02,
    seed: int = 7,
    n_reps: int = 2,
    hot_mass: float = 0.35,
) -> P2PSystem:
    """Build a booted :class:`P2PSystem` in one call.

    Runs the full pipeline — instance, category statistics, MaxFair
    assignment, replication plan, live overlay.  The intermediate
    artifacts stay reachable on the returned system (``system.instance``,
    ``system.assignment``, ``system.plan``, ``system.config``).  A world
    with deployment tunables is ``P2PSystem(*build_world(...), config=...)``.
    """
    instance, assignment, plan = build_world(
        config, scale=scale, seed=seed, n_reps=n_reps, hot_mass=hot_mass
    )
    return P2PSystem(instance, assignment, plan=plan)

