"""T2 — the Section 4.3.3 storage example.

The paper's worked example: a system of 2,000,000 documents, 200,000
nodes, 2,000 categories, 500 clusters, ``n_docs = 1,000`` documents per
category, ``n_reps = 5``, 4 MB documents (3-minute MP3s):

* ``size(s) = 1,000 * 5 * 4 MB = 20 GB`` per category;
* split over 200 cluster nodes -> 100 MB of base data per node;
* replicating the top 10% (100 documents, > 35% of the mass) on every
  node adds 400 MB -> 500 MB per node per category;
* with ~4 categories per cluster -> 2 GB per node.

This experiment reproduces the closed-form numbers exactly and then runs
the actual replica-placement algorithm at a reduced scale, checking that
per-node storage is near-uniform and that the hot set is small (the
"< 10% of documents cover > 35% of the mass" property).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.replication import build_world, category_storage_requirement
from repro.experiments.common import DES_SCALE
from repro.metrics.report import format_kv
from repro.model.zipf import expected_top_mass, top_mass_count, zipf_pmf

__all__ = ["StorageResult", "run", "format_result"]

MB = 1024 * 1024
GB = 1024 * MB


@dataclass(frozen=True, slots=True)
class StorageResult:
    # closed-form, paper-example numbers
    size_per_category_bytes: int
    base_bytes_per_node: float
    hot_docs_count: int
    hot_bytes_per_node: int
    total_per_node_per_category: float
    total_per_node_bytes: float
    top10_mass_theta08: float
    # simulated placement (reduced scale)
    sim_scale: float
    sim_mean_node_bytes: float
    sim_max_node_bytes: int
    sim_storage_fairness: float


def run(scale: float = DES_SCALE, seed: int = 7) -> StorageResult:
    """Reproduce the closed-form example and validate with real placement."""

    # --- closed form, exactly the paper's numbers -------------------
    n_docs, n_reps, doc_size = 1_000, 5, 4 * MB
    cluster_size = 200
    categories_per_cluster = 4
    size_s = category_storage_requirement(n_docs, n_reps, doc_size)  # 20 GB
    base_per_node = size_s / cluster_size  # 100 MB
    pmf = zipf_pmf(n_docs, 0.8)
    hot_count = top_mass_count(pmf, 0.35)  # paper: ~100 (10%)
    hot_bytes = hot_count * doc_size  # paper: ~400 MB
    per_node_per_category = base_per_node + hot_bytes
    per_node_total = per_node_per_category * categories_per_cluster  # ~2 GB

    # --- simulated placement at reduced scale -----------------------
    _, _, plan = build_world(scale=scale, seed=seed)
    node_bytes = np.array(list(plan.node_bytes.values()), dtype=np.float64)
    # Jain fairness of stored bytes across nodes that store anything.
    fairness = float(
        node_bytes.sum() ** 2 / (len(node_bytes) * np.dot(node_bytes, node_bytes))
    ) if len(node_bytes) else 1.0

    return StorageResult(
        size_per_category_bytes=size_s,
        base_bytes_per_node=base_per_node,
        hot_docs_count=hot_count,
        hot_bytes_per_node=hot_bytes,
        total_per_node_per_category=per_node_per_category,
        total_per_node_bytes=per_node_total,
        top10_mass_theta08=expected_top_mass(n_docs, 0.8, 0.10),
        sim_scale=scale,
        sim_mean_node_bytes=float(node_bytes.mean()) if len(node_bytes) else 0.0,
        sim_max_node_bytes=int(node_bytes.max()) if len(node_bytes) else 0,
        sim_storage_fairness=fairness,
    )


def format_result(result: StorageResult) -> str:
    rows = [
        ("size(s) per category", f"{result.size_per_category_bytes / GB:.1f} GB (paper: 20 GB)"),
        ("base data per node", f"{result.base_bytes_per_node / MB:.0f} MB (paper: 100 MB)"),
        ("hot docs covering 35% mass", f"{result.hot_docs_count} of 1000 (paper: ~100)"),
        ("hot replica bytes per node", f"{result.hot_bytes_per_node / MB:.0f} MB (paper: ~400 MB)"),
        ("per node per category", f"{result.total_per_node_per_category / MB:.0f} MB (paper: 500 MB)"),
        ("per node total (4 categories)", f"{result.total_per_node_bytes / GB:.2f} GB (paper: 2 GB)"),
        ("mass of top-10% docs (theta=0.8)", f"{result.top10_mass_theta08:.3f} (paper: > 0.35)"),
        ("simulated placement scale", f"{result.sim_scale}"),
        ("simulated mean node storage", f"{result.sim_mean_node_bytes / MB:.1f} MB"),
        ("simulated max node storage", f"{result.sim_max_node_bytes / MB:.1f} MB"),
        ("simulated storage fairness", f"{result.sim_storage_fairness:.4f}"),
    ]
    return format_kv(rows, title="T2 — Section 4.3.3 storage example")
