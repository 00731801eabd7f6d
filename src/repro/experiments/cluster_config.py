"""X1 — optimal system configuration: clusters vs nodes-per-cluster.

The paper's future-work item (ii): "optimal system configurations, in
terms of the number of clusters versus the number of nodes per cluster".
This experiment makes the trade-off concrete by sweeping the cluster count
for a fixed node/document/category population and measuring, per
configuration:

* the achievable inter-cluster fairness (MaxFair gets harder as clusters
  multiply — fewer categories per cluster to even things out);
* the Section 3.3 worst-case hop bound (the largest cluster's size);
* the per-pair transfer size when a mean category moves (rebalancing gets
  cheaper as destination clusters grow — more pieces);
* mean per-node storage under the Section 4.3.3 replication policy
  (smaller clusters hold fewer categories but split each over fewer
  nodes).

The emergent picture is the paper's implied sweet spot: enough clusters
for cheap rebalancing and small hop bounds, but not so many that the
balancing problem degrades.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.maxfair import achieved_fairness
from repro.core.popularity import cluster_members
from repro.core.replication import build_world
from repro.experiments.common import DES_SCALE
from repro.metrics.report import format_table
from repro.model.system import SystemConfig

__all__ = ["ConfigRow", "ClusterConfigResult", "run", "format_result"]

MB = 1024 * 1024

#: paper-scale cluster counts swept (scaled by the run's scale factor).
CLUSTER_COUNTS = (20, 50, 100, 200, 400)


@dataclass(frozen=True, slots=True)
class ConfigRow:
    n_clusters: int
    actual_clusters: int
    mean_cluster_size: float
    max_cluster_size: int
    fairness: float
    mean_transfer_mb: float
    mean_node_storage_mb: float


@dataclass(frozen=True, slots=True)
class ClusterConfigResult:
    scale: float
    rows: tuple[ConfigRow, ...]


def run(
    scale: float = DES_SCALE,
    seed: int = 7,
    cluster_counts: tuple[int, ...] = CLUSTER_COUNTS,
) -> ClusterConfigResult:
    """Sweep the cluster count; measure the configuration trade-offs."""
    base = SystemConfig(seed=seed).scaled(scale)
    rows = []
    for paper_count in cluster_counts:
        n_clusters = max(2, round(paper_count * scale))
        config = replace(base, n_clusters=n_clusters)
        instance, assignment, plan = build_world(config)
        fairness = achieved_fairness(instance, assignment)

        members = cluster_members(instance, assignment.category_to_cluster)
        sizes = np.array([len(m) for m in members if m], dtype=float)

        # Mean transfer size if an average category moved into an average
        # cluster: its total replicated bytes split one piece per member.
        docs_per_category = len(instance.documents) / len(instance.categories)
        category_bytes = docs_per_category * config.doc_size_bytes * 2
        mean_transfer = category_bytes / max(1.0, sizes.mean())

        node_storage = np.array(list(plan.node_bytes.values()), dtype=float)

        rows.append(
            ConfigRow(
                n_clusters=paper_count,
                actual_clusters=n_clusters,
                mean_cluster_size=float(sizes.mean()) if len(sizes) else 0.0,
                max_cluster_size=int(sizes.max()) if len(sizes) else 0,
                fairness=float(fairness),
                mean_transfer_mb=mean_transfer / MB,
                mean_node_storage_mb=(
                    float(node_storage.mean() / MB) if len(node_storage) else 0.0
                ),
            )
        )
    return ClusterConfigResult(scale=scale, rows=tuple(rows))


def format_result(result: ClusterConfigResult) -> str:
    rows = [
        (
            row.n_clusters,
            row.actual_clusters,
            f"{row.mean_cluster_size:.0f}",
            row.max_cluster_size,
            f"{row.fairness:.4f}",
            f"{row.mean_transfer_mb:.1f}",
            f"{row.mean_node_storage_mb:.0f}",
        )
        for row in result.rows
    ]
    return format_table(
        [
            "|C| (paper scale)",
            "|C| (actual)",
            "mean cluster size",
            "max cluster size (worst-case hops)",
            "fairness",
            "mean transfer MB/move",
            "mean storage MB/node",
        ],
        rows,
        title=(
            "X1 — clusters vs nodes-per-cluster trade-off "
            f"(future-work item ii), scale = {result.scale}"
        ),
    )
