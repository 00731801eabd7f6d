"""X3 — rebalancing granularity: categories vs documents.

The paper's future-work item (vi): "the optimal granularity (i.e.,
whether nodes, documents, or whole categories should be moved) when
correcting imbalances between clusters".

The comparison: after the Figure 5 perturbation, rebalance the same
system (a) at *category* granularity — the paper's MaxFair_Reassign —
and (b) at *document* granularity, where individual documents may leave
their category's cluster.  Document moves give the optimizer much finer
pieces, so the same fairness target is reachable while moving far fewer
bytes (only the hot documents travel) — at the price of breaking the
"each category lives in exactly one cluster" invariant, which is exactly
the architectural cost the paper's discussion weighs.

Document-granularity reassignment reuses MaxFair_Reassign verbatim: each
document is presented as a singleton "category" with its own popularity
and a proportional share of its category's capacity weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.maxfair import Assignment, maxfair
from repro.core.popularity import CategoryStats, build_category_stats
from repro.core.reassign import maxfair_reassign_from_stats
from repro.experiments.common import ALGO_SCALE
from repro.metrics.report import format_table
from repro.model.workload import add_hot_documents, zipf_category_scenario

__all__ = ["GranularityRow", "GranularityResult", "run", "format_result"]

MB = 1024 * 1024
# The perturbation (30 % new mass on 10 % of the categories), the upper
# reassignment threshold, and the replicas each moved item drags along.
MASS_FRACTION = 0.30
CATEGORY_SUBSET_FRACTION = 0.10
FAIRNESS_THRESHOLD = 0.92
N_REPS = 2


@dataclass(frozen=True, slots=True)
class GranularityRow:
    granularity: str
    initial_fairness: float
    final_fairness: float
    items_moved: int
    bytes_moved_mb: float
    converged: bool


@dataclass(frozen=True, slots=True)
class GranularityResult:
    scale: float
    rows: tuple[GranularityRow, ...]

    def row(self, granularity: str) -> GranularityRow:
        for row in self.rows:
            if row.granularity == granularity:
                return row
        raise KeyError(granularity)


def _document_stats(instance, category_stats: CategoryStats):
    """Document-level (popularity, weight) arrays plus doc id order."""
    doc_ids = sorted(instance.documents)
    popularity = np.array(
        [instance.documents[d].popularity for d in doc_ids]
    )
    weights = np.zeros(len(doc_ids))
    docs_per_category = np.maximum(
        1, np.array([c.n_docs for c in instance.categories])
    )
    for index, doc_id in enumerate(doc_ids):
        doc = instance.documents[doc_id]
        share = 0.0
        for category_id in doc.categories:
            share += (
                category_stats.storage_weight[category_id]
                / docs_per_category[category_id]
            )
        weights[index] = share
    stats = CategoryStats(
        popularity=popularity, storage_weight=np.maximum(weights, 1e-12)
    )
    return stats, doc_ids


def run(scale: float = ALGO_SCALE, seed: int = 7) -> GranularityResult:
    """Perturb once, rebalance at both granularities, compare costs."""
    instance = zipf_category_scenario(
        scale=scale, seed=seed, doc_theta=0.8, category_theta=0.8
    )
    original_stats = build_category_stats(instance)
    assignment = maxfair(instance, stats=original_stats)
    add_hot_documents(
        instance,
        mass_fraction=MASS_FRACTION,
        seed=seed + 1,
        new_doc_theta=0.8,
        category_subset_fraction=CATEGORY_SUBSET_FRACTION,
    )
    perturbed = build_category_stats(instance)
    hybrid = original_stats.with_popularity(perturbed.popularity)
    doc_size = instance.config.doc_size_bytes

    rows = []

    # (a) category granularity — the paper's algorithm.
    category_result = maxfair_reassign_from_stats(
        hybrid, assignment, fairness_threshold=FAIRNESS_THRESHOLD, max_moves=60
    )
    category_bytes = sum(
        instance.categories[move.category_id].n_docs * doc_size * N_REPS
        for move in category_result.moves
    )
    rows.append(
        GranularityRow(
            granularity="category",
            initial_fairness=category_result.initial_fairness,
            final_fairness=category_result.final_fairness,
            items_moved=category_result.n_moves,
            bytes_moved_mb=category_bytes / MB,
            converged=category_result.converged,
        )
    )

    # (b) document granularity — singleton items, same greedy.
    doc_stats, doc_ids = _document_stats(instance, hybrid)
    doc_mapping = np.array(
        [
            int(assignment.category_to_cluster[instance.documents[d].categories[0]])
            for d in doc_ids
        ]
    )
    doc_assignment = Assignment(
        category_to_cluster=doc_mapping, n_clusters=assignment.n_clusters
    )
    doc_result = maxfair_reassign_from_stats(
        doc_stats,
        doc_assignment,
        fairness_threshold=FAIRNESS_THRESHOLD,
        max_moves=400,
    )
    doc_bytes = doc_result.n_moves * doc_size * N_REPS
    rows.append(
        GranularityRow(
            granularity="document",
            initial_fairness=doc_result.initial_fairness,
            final_fairness=doc_result.final_fairness,
            items_moved=doc_result.n_moves,
            bytes_moved_mb=doc_bytes / MB,
            converged=doc_result.converged,
        )
    )
    return GranularityResult(scale=scale, rows=tuple(rows))


def format_result(result: GranularityResult) -> str:
    rows = [
        (
            row.granularity,
            f"{row.initial_fairness:.4f}",
            f"{row.final_fairness:.4f}",
            row.items_moved,
            f"{row.bytes_moved_mb:.0f}",
            "yes" if row.converged else "no",
        )
        for row in result.rows
    ]
    return format_table(
        ["granularity", "initial fairness", "final fairness", "items moved",
         "bytes moved (MB)", "converged"],
        rows,
        title=(
            "X3 — rebalancing granularity (future-work item vi), "
            f"scale = {result.scale}"
        ),
    )
