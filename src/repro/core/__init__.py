"""Core contribution of the paper: inter-cluster load balancing.

This subpackage holds the paper's algorithmic heart:

* :mod:`repro.core.fairness` — Jain's fairness index [25], the one
  objective, plus the alternative views the paper's future-work list
  calls for (majorization [24], Gini, coefficient of variation, max-min
  ratio);
* :mod:`repro.core.popularity` — normalized cluster popularity under the
  Section 4.3.3 limited-storage model, which reduces to the Section
  4.1/4.3.1 models when each node contributes to one category;
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
from repro.core.popularity import normalized_cluster_popularities
from repro.core.reassign import ReassignResult, maxfair_reassign
from repro.core.replication import ReplicationPlan, build_world, plan_replication

__all__ = [
    "Assignment",
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
