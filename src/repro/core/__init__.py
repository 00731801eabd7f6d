"""Core contribution of the paper: inter-cluster load balancing.

This subpackage holds the paper's algorithmic heart:

* :mod:`repro.core.fairness` — Jain's fairness index [25] plus the
  alternative fairness metrics the paper's future-work list calls for
  (majorization [24], Gini, coefficient of variation, max-min ratio);
* :mod:`repro.core.popularity` — the four normalized-cluster-popularity
  models of Sections 4.1-4.3.3, from "identical peers" to "heterogeneous
  capacities with limited storage";
* :mod:`repro.core.maxfair` — the greedy MaxFair assignment algorithm;
* :mod:`repro.core.reassign` — the MaxFair_Reassign rebalancing algorithm;
* :mod:`repro.core.replication` — the Section 4.3.3 replica-placement
  policy for intra-cluster load balancing, and :func:`build_world`, the
  instance -> stats -> MaxFair -> plan pipeline every world is built by;
* :mod:`repro.core.partition` — the formal ICLB decision problem, an
  exhaustive solver for small instances, and the PARTITION reduction used
  in the NP-completeness proof sketch;
* :mod:`repro.core.baselines` — naive assignment strategies (random,
  round-robin, uniform hash, LPT) used as comparators.
"""

from repro.core.fairness import (
    coefficient_of_variation,
    gini,
    jain_fairness,
    lorenz_curve,
    majorizes,
    max_min_ratio,
)
from repro.core.maxfair import Assignment, maxfair
from repro.core.popularity import (
    ClusterModel,
    normalized_cluster_popularities,
)
from repro.core.reassign import ReassignResult, maxfair_reassign
from repro.core.replication import ReplicationPlan, build_world, plan_replication

__all__ = [
    "Assignment",
    "ClusterModel",
    "ReassignResult",
    "ReplicationPlan",
    "build_world",
    "coefficient_of_variation",
    "gini",
    "jain_fairness",
    "lorenz_curve",
    "majorizes",
    "max_min_ratio",
    "maxfair",
    "maxfair_reassign",
    "normalized_cluster_popularities",
    "plan_replication",
]
