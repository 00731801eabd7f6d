"""Workload scenarios, query streams, and perturbation generators.

Three kinds of workload are needed to reproduce the paper's evaluation:

* **Scenario builders** — shorthand constructors for the two Section 4.4
  configurations: the "challenging" Zipf-like category-popularity scenario
  of Figure 2 and the near-uniform scenario of Figure 3.
* **Query streams** — request sequences drawn from the document popularity
  distribution, used by the discrete-event experiments to measure observed
  per-node load and response hops.
* **Perturbations** — the Figure 4/5 stress test: add 5% new documents
  that carry 30% of the (resulting) total popularity mass, randomly spread
  over categories.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.model.documents import Document
from repro.model.system import (
    SCENARIO_UNIFORM,
    SCENARIO_ZIPF,
    SystemConfig,
    SystemInstance,
    build_system,
)
from repro.model.zipf import zipf_pmf

__all__ = [
    "Query",
    "QueryWorkload",
    "PerturbationResult",
    "zipf_category_scenario",
    "uniform_category_scenario",
    "make_query_workload",
    "diurnal_factor",
    "add_hot_documents",
]


def zipf_category_scenario(
    scale: float = 1.0,
    seed: int = 0,
    category_theta: float = 0.7,
    doc_theta: float = 0.8,
) -> SystemInstance:
    """Build the Figure 2 scenario (Zipf-like category popularities).

    ``scale`` shrinks all four population sizes proportionally from the
    paper's |D|=200k / |N|=20k / |C|=100 / |S|=500 configuration.
    """
    config = SystemConfig(
        scenario=SCENARIO_ZIPF,
        category_theta=category_theta,
        doc_theta=doc_theta,
        seed=seed,
    ).scaled(scale)
    return build_system(config)


def uniform_category_scenario(scale: float = 1.0, seed: int = 0) -> SystemInstance:
    """Build the Figure 3 scenario (near-uniform category popularities)."""
    config = SystemConfig(scenario=SCENARIO_UNIFORM, seed=seed).scaled(scale)
    return build_system(config)


@dataclass(frozen=True, slots=True)
class Query:
    """A single user request.

    Mirrors the paper's query form ``[(k1..kn), m, idQ]`` (Section 3.3):
    keywords are pre-resolved to a target document and its categories (the
    categorization step is deterministic in our substitution), ``m`` is the
    number of desired results, and ``query_id`` the unique pseudorandom id
    used for loop detection.
    """

    query_id: int
    requester_id: int
    target_doc_id: int
    category_ids: tuple[int, ...]
    m: int = 1


@dataclass(slots=True)
class QueryWorkload:
    """A reproducible request stream over a system instance."""

    queries: list[Query]

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def doc_hit_counts(self, n_docs: int) -> np.ndarray:
        """Requests per document id — handy for skew sanity checks."""
        counts = np.zeros(n_docs, dtype=np.int64)
        for query in self.queries:
            counts[query.target_doc_id] += 1
        return counts


def make_query_workload(
    instance: SystemInstance,
    n_queries: int,
    seed: int = 0,
    m: int = 1,
) -> QueryWorkload:
    """Draw ``n_queries`` requests according to document popularities.

    Requesters are uniform over nodes — any peer may ask for anything; the
    skew lives entirely in *what* is requested.
    """
    if n_queries < 0:
        raise ValueError(f"n_queries must be non-negative, got {n_queries}")
    rng = np.random.default_rng(seed)
    documents = instance.documents
    doc_ids = sorted(documents)
    popularity = np.array([documents[d].popularity for d in doc_ids])
    total = popularity.sum()
    if total <= 0:
        raise ValueError("instance has zero total popularity")
    # Inverse-CDF sampling: consumes the same RNG stream and yields the
    # same indices as rng.choice(len(doc_ids), size, p=popularity / total),
    # without numpy's per-call pmf validation.
    cdf = np.cumsum(popularity / total)
    cdf /= cdf[-1]
    choices = cdf.searchsorted(rng.random(n_queries), side="right")
    requesters = rng.integers(0, len(instance.nodes), size=n_queries)
    node_ids = sorted(instance.nodes)
    n_nodes = len(node_ids)

    requester_list = requesters.tolist()
    queries = [
        Query(
            query_id=i,
            requester_id=node_ids[requester_list[i] % n_nodes],
            target_doc_id=doc.doc_id,
            category_ids=doc.categories,
            m=m,
        )
        for i, doc in enumerate(
            documents[doc_ids[c]] for c in choices.tolist()
        )
    ]
    return QueryWorkload(queries=queries)


def diurnal_factor(amplitude: float, cycles: float) -> float:
    """The rate multiplier ``1 + amplitude * sin(2π * cycles)`` (``cycles``:
    position in the day, in periods; non-negative for ``amplitude <= 1``)."""
    return 1.0 + amplitude * math.sin(2.0 * math.pi * cycles)


@dataclass(frozen=True, slots=True)
class PerturbationResult:
    """Outcome of a content-population perturbation.

    Attributes
    ----------
    new_doc_ids:
        Identifiers of the documents added.
    added_mass:
        Total popularity added (in the *original* popularity scale).
    affected_categories:
        Categories that received at least one new document.
    """

    new_doc_ids: tuple[int, ...]
    added_mass: float
    affected_categories: tuple[int, ...]


def add_hot_documents(
    instance: SystemInstance,
    doc_fraction: float = 0.05,
    mass_fraction: float = 0.30,
    seed: int = 1,
    new_doc_theta: float = 0.8,
    category_subset_fraction: float | None = None,
) -> PerturbationResult:
    """Apply the Figure 4/5 stress test to ``instance`` in place.

    Adds ``doc_fraction`` x |D| new documents that become the most popular
    content in the system, together carrying ``mass_fraction`` of the
    *resulting* total probability mass (the paper: "we add 5% new documents
    ... which correspond to 30% of the total probability mass").  The new
    documents are "assigned randomly to some semantic categories" — by
    default uniformly over all categories; pass ``category_subset_fraction``
    to concentrate them on a random subset (a harsher upset, closer to a
    flash-crowd on a few topics).  Each new document is contributed by a
    random existing node.
    """
    if not 0.0 < doc_fraction <= 1.0:
        raise ValueError(f"doc_fraction must be in (0, 1], got {doc_fraction}")
    if not 0.0 < mass_fraction < 1.0:
        raise ValueError(f"mass_fraction must be in (0, 1), got {mass_fraction}")
    if category_subset_fraction is not None and not (
        0.0 < category_subset_fraction <= 1.0
    ):
        raise ValueError(
            "category_subset_fraction must be in (0, 1], "
            f"got {category_subset_fraction}"
        )

    rng = np.random.default_rng(seed)
    n_new = max(1, round(len(instance.documents) * doc_fraction))
    old_total = instance.total_popularity
    # added / (old + added) = mass_fraction  =>  added = old * f / (1 - f)
    added_mass = old_total * mass_fraction / (1.0 - mass_fraction)

    # Spread the added mass over the new documents with the same skew as
    # the rest of the content; they dominate the old popular documents in
    # aggregate regardless of the internal split.
    new_popularity = zipf_pmf(n_new, new_doc_theta) * added_mass
    n_categories = len(instance.categories)
    if category_subset_fraction is None:
        candidate_categories = np.arange(n_categories)
    else:
        subset_size = max(1, round(n_categories * category_subset_fraction))
        candidate_categories = rng.choice(n_categories, size=subset_size, replace=False)
    target_categories = candidate_categories[
        rng.integers(0, len(candidate_categories), size=n_new)
    ]
    node_ids = np.array(sorted(instance.nodes))
    contributor_idx = rng.integers(0, len(node_ids), size=n_new)

    new_ids = []
    for i in range(n_new):
        doc = Document(
            doc_id=instance.fresh_doc_id(),
            popularity=float(new_popularity[i]),
            categories=(int(target_categories[i]),),
            size_bytes=instance.config.doc_size_bytes,
        )
        instance.add_document(doc, contributor_id=int(node_ids[contributor_idx[i]]))
        new_ids.append(doc.doc_id)

    return PerturbationResult(
        new_doc_ids=tuple(new_ids),
        added_mass=added_mass,
        affected_categories=tuple(sorted(set(int(c) for c in target_categories))),
    )
