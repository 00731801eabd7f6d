"""E2 — intra-cluster load balancing via replica placement.

Section 4.3.3's claim: when document popularity within a category is
skewed, partitioning the documents over cluster nodes is not enough —
whoever holds the hottest documents absorbs their load.  Replicating the
top-``m`` documents covering >= 35% of the probability mass on *every*
cluster node (< 10% of documents under realistic Zipf laws) equalizes the
per-node stored popularity, after which the Section 3.3 random dispatch
balances the observed load.

This experiment sweeps the hot-mass threshold (0 = no hot replication,
the ablation baseline) and reports, per setting:

* the *expected* intra-cluster fairness from the placement (each
  document's load split over its replica holders);
* the *observed* served-load fairness from a simulated Zipf query stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fairness import jain_fairness
from repro.core.popularity import cluster_members
from repro.core.replication import build_world, plan_replication
from repro.experiments.common import DES_SCALE
from repro.metrics.report import format_table
from repro.model.workload import make_query_workload
from repro.overlay.system import P2PSystem

__all__ = ["IntraClusterRow", "IntraClusterResult", "run", "format_result"]

HOT_MASS_SETTINGS = (0.0, 0.20, 0.35, 0.50)
N_QUERIES = 6000


@dataclass(frozen=True, slots=True)
class IntraClusterRow:
    hot_mass: float
    expected_fairness: float
    observed_fairness: float
    mean_storage_mb: float


@dataclass(frozen=True, slots=True)
class PolicyRow:
    """One replica-placement policy's balance/storage trade-off."""

    policy: str
    expected_fairness: float
    total_storage_gb: float


@dataclass(frozen=True, slots=True)
class IntraClusterResult:
    scale: float
    rows: tuple[IntraClusterRow, ...]
    #: future-work item (vii): space-efficient placement alternatives.
    policy_rows: tuple[PolicyRow, ...] = ()


def run(scale: float = DES_SCALE, seed: int = 7) -> IntraClusterResult:
    """Sweep the hot-mass knob; measure expected and observed fairness."""
    rows = []
    for hot_mass in HOT_MASS_SETTINGS:
        instance, assignment, plan = build_world(
            scale=scale, seed=seed, hot_mass=hot_mass
        )

        # Expected: average per-cluster fairness of placement-implied load.
        expected = np.mean(
            [
                plan.intra_cluster_fairness(instance, assignment, cluster_id)
                for cluster_id in range(assignment.n_clusters)
            ]
        )

        # Observed: run a query stream, measure served-load fairness among
        # cluster members (averaged over clusters).
        system = P2PSystem(instance, assignment, plan=plan)
        system.run_workload(make_query_workload(instance, N_QUERIES, seed=seed + 1))
        loads = system.node_loads()
        members = cluster_members(instance, assignment.category_to_cluster)
        cluster_fairness = []
        for cluster_id in range(assignment.n_clusters):
            ids = sorted(members[cluster_id]) if cluster_id < len(members) else []
            if len(ids) < 2:
                continue
            cluster_fairness.append(
                jain_fairness([loads.get(node_id, 0) for node_id in ids])
            )
        observed = float(np.mean(cluster_fairness)) if cluster_fairness else 1.0

        storage = np.array(list(plan.node_bytes.values()), dtype=np.float64)
        rows.append(
            IntraClusterRow(
                hot_mass=hot_mass,
                expected_fairness=float(expected),
                observed_fairness=observed,
                mean_storage_mb=float(storage.mean() / (1024 * 1024))
                if len(storage)
                else 0.0,
            )
        )

    # Future-work item (vii): compare the paper's policy with
    # space-efficient alternatives under (about) the same replica budget.
    policy_rows = []
    policy_instance, policy_assignment, _ = build_world(scale=scale, seed=seed)
    for policy in ("hot_mass", "uniform", "sqrt", "proportional"):
        plan = plan_replication(
            policy_instance, policy_assignment, n_reps=2, policy=policy
        )
        expected = np.mean(
            [
                plan.intra_cluster_fairness(
                    policy_instance, policy_assignment, cluster_id
                )
                for cluster_id in range(policy_assignment.n_clusters)
            ]
        )
        policy_rows.append(
            PolicyRow(
                policy=policy,
                expected_fairness=float(expected),
                total_storage_gb=sum(plan.node_bytes.values()) / 1024**3,
            )
        )
    return IntraClusterResult(
        scale=scale, rows=tuple(rows), policy_rows=tuple(policy_rows)
    )


def format_result(result: IntraClusterResult) -> str:
    rows = [
        (
            f"{row.hot_mass:.2f}",
            f"{row.expected_fairness:.4f}",
            f"{row.observed_fairness:.4f}",
            f"{row.mean_storage_mb:.1f}",
        )
        for row in result.rows
    ]
    parts = [
        format_table(
            ["hot mass", "expected intra fairness", "observed intra fairness", "mean storage MB"],
            rows,
            title=(
                "E2 — intra-cluster balance vs hot-replication mass "
                f"(paper uses 0.35; 0.00 = partitioning only), scale = {result.scale}"
            ),
        )
    ]
    if result.policy_rows:
        parts.append(
            format_table(
                ["policy", "expected intra fairness", "total storage GB"],
                [
                    (p.policy, f"{p.expected_fairness:.4f}", f"{p.total_storage_gb:.1f}")
                    for p in result.policy_rows
                ],
                title=(
                    "E2a — placement-policy alternatives "
                    "(future-work item vii; same n_reps budget)"
                ),
            )
        )
    return "\n\n".join(parts)
