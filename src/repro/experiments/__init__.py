"""Experiment modules — one per paper figure/table (see DESIGN.md).

| id | paper artifact                              | module            |
|----|---------------------------------------------|-------------------|
| F2 | Figure 2 (Zipf categories, MaxFair)         | ``figure2``       |
| F3 | Figure 3 (uniform categories, MaxFair)      | ``figure3``       |
| F4 | Figure 4 (robustness under perturbation)    | ``figure4``       |
| F5 | Figure 5 (MaxFair_Reassign recovery)        | ``figure5``       |
| T1 | Section 4.4 scaling claims                  | ``scaling``       |
| T2 | Section 4.3.3 storage example               | ``storage``       |
| T3 | Section 6.1.3 rebalancing-cost example      | ``rebalance_cost``|
| E1 | architecture vs Chord/Gnutella/central      | ``comparison``    |
| E2 | intra-cluster balance via replication       | ``intra_cluster`` |
| E3 | dynamics: flash crowd, adaptation, churn    | ``dynamics``      |
| X1 | clusters vs nodes-per-cluster (fw item ii)  | ``cluster_config``|
| X2 | requester-side caching (fw item viii)       | ``caching``       |
| X3 | rebalancing granularity (fw item vi)        | ``granularity``   |
| FUZZ | chaos fuzzing + invariant checks (no fig.) | ``fuzz``          |
| LOSS | query delivery vs message loss (no fig.)   | ``loss``          |
| OVERLOAD | goodput vs offered load, shedding on/off | ``overload``  |
| CACHE-QOS | static vs adaptive replication, flash crowd | ``cache_qos`` |
| SCENARIO | declarative workload-scenario matrix (no fig.) | ``scenario`` |
| HEAL | fetch success vs churn, healing on/off (no fig.) | ``heal``    |
| RECOVERY | crash/restart durability, persistence on/off (no fig.) | ``recovery`` |
| WORLD | world-build calls, seconds and bytes by scale (no fig.) | ``world_size`` |

The X rows implement the paper's explicit future-work items ("fw").
An experiment is a plain module: ``run(**named parameters, all with
defaults) -> its own result dataclass``, ``format_result(result) -> str``,
an optional ``smoke()`` (the CI gate: runs, prints, raises on a failed
check), and a docstring whose first line is its one-line description.
The CLI front door is :mod:`repro.experiments.runner` (installed as
``repro-experiments``); the benchmarks in ``benchmarks/`` call the same
``run`` functions.
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

#: experiment id -> module: the one registry.  The CLI, the :mod:`repro.api`
#: facade and the tests all dispatch through it.
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
