"""Experiment modules — one per paper figure/table (see DESIGN.md).

:data:`EXPERIMENTS` below is the index (``repro-experiments --list``
prints it with each module's one-line description; DESIGN.md maps the
ids to the paper's figures and tables; the X ids are the paper's explicit
future-work items).  An experiment is a plain module: ``run(**named parameters, all with
defaults) -> its own result dataclass``, ``format_result(result) -> str``,
an optional ``smoke()`` (the CI gate: runs, prints, raises on a failed
check), and a docstring whose first line is its one-line description.
The CLI front door is :mod:`repro.experiments.runner` (installed as
``repro-experiments``).
"""

from repro.experiments import (  # noqa: F401  (re-exported for discovery)
    cache_qos,
    caching,
    cluster_config,
    comparison,
    dynamics,
    figure2,
    figure3,
    figure4,
    figure5,
    fuzz,
    granularity,
    heal,
    intra_cluster,
    loss,
    overload,
    rebalance_cost,
    recovery,
    scaling,
    scenario,
    storage,
    world_size,
)

#: experiment id -> module: the one registry.  The CLI and the tests
#: dispatch through it.
EXPERIMENTS = {
    "F2": figure2,
    "F3": figure3,
    "F4": figure4,
    "F5": figure5,
    "T1": scaling,
    "T2": storage,
    "T3": rebalance_cost,
    "E1": comparison,
    "E2": intra_cluster,
    "E3": dynamics,
    "X1": cluster_config,
    "X2": caching,
    "X3": granularity,
    "FUZZ": fuzz,
    "LOSS": loss,
    "OVERLOAD": overload,
    "CACHE-QOS": cache_qos,
    "SCENARIO": scenario,
    "HEAL": heal,
    "RECOVERY": recovery,
    "WORLD": world_size,
}

__all__ = ["EXPERIMENTS"]
