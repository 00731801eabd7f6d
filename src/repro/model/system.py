"""System instance construction.

Builds the full "world" the paper evaluates on: documents with Zipf
popularities, categories populated according to one of the paper's two
scenarios, and heterogeneous peer nodes contributing those documents.

The default :class:`SystemConfig` matches the configuration reported in
Section 4.4: ``|D| = 200,000`` documents, ``|N| = 20,000`` nodes,
``|C| = 100`` clusters, ``|S| = 500`` categories, document-popularity Zipf
theta = 0.8, node capacities uniform in [1..5], and nodes contributing
documents spanning between 1 and 20 categories.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.bulk import collector_paused
from repro.model.documents import Category, Document
from repro.model.nodes import Node
from repro.model.zipf import ZipfSampler, zipf_pmf

__all__ = ["SystemConfig", "SystemInstance", "build_system"]

#: Document-to-category assignment scenarios (Section 4.4).
SCENARIO_ZIPF = "zipf"  # Figure 2: Zipf-like category popularities with spikes
SCENARIO_UNIFORM = "uniform"  # Figure 3: near-uniform category popularities


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Parameters describing a system instance.

    The defaults reproduce the Section 4.4 configuration at full paper
    scale.  Use :meth:`scaled` for smaller, shape-preserving instances in
    tests and discrete-event experiments.
    """

    n_docs: int = 200_000
    n_nodes: int = 20_000
    n_categories: int = 500
    n_clusters: int = 100
    doc_theta: float = 0.8
    category_theta: float = 0.7
    scenario: str = SCENARIO_ZIPF
    capacity_range: tuple[int, int] = (1, 5)
    categories_per_node: tuple[int, int] = (1, 20)
    doc_size_bytes: int = 4 * 1024 * 1024
    multi_category_fraction: float = 0.0
    max_categories_per_doc: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_docs <= 0 or self.n_nodes <= 0:
            raise ValueError("n_docs and n_nodes must be positive")
        if self.n_categories <= 0 or self.n_clusters <= 0:
            raise ValueError("n_categories and n_clusters must be positive")
        if self.scenario not in (SCENARIO_ZIPF, SCENARIO_UNIFORM):
            raise ValueError(f"unknown scenario: {self.scenario!r}")
        if self.capacity_range[0] < 1 or self.capacity_range[0] > self.capacity_range[1]:
            raise ValueError(f"bad capacity_range: {self.capacity_range}")
        low, high = self.categories_per_node
        if low < 1 or low > high:
            raise ValueError(f"bad categories_per_node: {self.categories_per_node}")
        if not 0.0 <= self.multi_category_fraction <= 1.0:
            raise ValueError(
                f"multi_category_fraction must be in [0, 1], "
                f"got {self.multi_category_fraction}"
            )
        if self.max_categories_per_doc < 1:
            raise ValueError("max_categories_per_doc must be >= 1")

    def scaled(self, factor: float) -> "SystemConfig":
        """Return a copy scaled down (or up) by ``factor`` on all populations.

        Keeps the docs/nodes/categories/clusters ratios of the paper's
        configuration so experiment shapes carry over.
        """
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        return replace(
            self,
            n_docs=max(1, round(self.n_docs * factor)),
            n_nodes=max(1, round(self.n_nodes * factor)),
            n_categories=max(1, round(self.n_categories * factor)),
            n_clusters=max(1, round(self.n_clusters * factor)),
        )


@dataclass(slots=True)
class SystemInstance:
    """A fully-populated system: documents, categories, and nodes.

    Invariants maintained by :func:`build_system` and by the dynamic
    protocols that later mutate instances:

    * every document belongs to >= 1 category and is contributed by exactly
      one node;
    * ``categories[s].popularity`` equals the summed popularity shares of
      the documents mapped to ``s``;
    * every category with documents has >= 1 contributing node.
    """

    config: SystemConfig
    documents: dict[int, Document]
    categories: list[Category]
    nodes: dict[int, Node]
    #: node_id -> sorted list of category ids the node contributes to
    node_categories: dict[int, list[int]] = field(default_factory=dict)
    _next_doc_id: int = 0

    @property
    def n_clusters(self) -> int:
        return self.config.n_clusters

    @property
    def category_popularity(self) -> np.ndarray:
        """Vector ``p(s)`` indexed by category id."""
        return np.array([c.popularity for c in self.categories])

    @property
    def total_popularity(self) -> float:
        return float(sum(d.popularity for d in self.documents.values()))

    def fresh_doc_id(self) -> int:
        """Allocate a new unique document id (for dynamic publishes)."""
        doc_id = self._next_doc_id
        self._next_doc_id += 1
        return doc_id

    def add_document(self, doc: Document, contributor_id: int) -> None:
        """Insert a new document contributed by ``contributor_id``.

        Updates category popularities and the contributor's records; used
        by the publish protocol and the perturbation generators.
        """
        if doc.doc_id in self.documents:
            raise ValueError(f"document {doc.doc_id} already exists")
        if contributor_id not in self.nodes:
            raise KeyError(f"unknown node {contributor_id}")
        self.documents[doc.doc_id] = doc
        for category_id in doc.categories:
            self.categories[category_id].add_document(doc)
            cats = self.node_categories.setdefault(contributor_id, [])
            if category_id not in cats:
                cats.append(category_id)
                cats.sort()
        self.nodes[contributor_id].contribute(doc.doc_id)
        self._next_doc_id = max(self._next_doc_id, doc.doc_id + 1)

    def validate(self) -> None:
        """Check the structural invariants; raise ``AssertionError`` on breach."""
        recomputed = [0.0] * len(self.categories)
        for doc in self.documents.values():
            for category_id in doc.categories:
                recomputed[category_id] += doc.popularity_per_category
        for category, expected in zip(self.categories, recomputed):
            assert abs(category.popularity - expected) < 1e-6, (
                f"category {category.category_id} popularity drifted: "
                f"{category.popularity} vs {expected}"
            )
        contributed: set[int] = set()
        for node in self.nodes.values():
            for doc_id in node.contributed_doc_ids:
                assert doc_id not in contributed, f"doc {doc_id} contributed twice"
                contributed.add(doc_id)
        assert contributed == set(self.documents), (
            "contribution mapping out of sync with document set"
        )


def _assign_doc_categories(
    rng: np.random.Generator, config: SystemConfig
) -> list[tuple[int, ...]]:
    """Choose the category tuple for every document, per the scenario.

    ``zipf`` scenario (Figure 2): each document's primary category is drawn
    from a Zipf(theta = ``category_theta``) law over categories, so popular
    categories accumulate more documents — but because *which* documents
    land where is random, the resulting category-popularity distribution is
    "Zipf-like with spikes", exactly as Section 4.4 describes.

    ``uniform`` scenario (Figure 3): the primary category is uniform,
    giving a near-uniform distribution of documents into categories.
    """
    n_docs, n_cats = config.n_docs, config.n_categories
    if config.scenario == SCENARIO_ZIPF:
        sampler = ZipfSampler(n_cats, config.category_theta)
        primary = sampler.sample(rng, n_docs)
    else:
        primary = rng.integers(0, n_cats, size=n_docs)

    # Documents are single-category unless multi_category_fraction opts in;
    # the all-single case is fully vectorized (no per-document rng calls,
    # matching the historical draw-for-draw behaviour exactly).
    assignments: list[tuple[int, ...]] = [(c,) for c in primary.tolist()]
    if config.multi_category_fraction <= 0:
        return assignments
    multi = rng.random(n_docs) < config.multi_category_fraction
    for i in np.flatnonzero(multi).tolist():
        extra_count = int(rng.integers(1, config.max_categories_per_doc))
        cats = {assignments[i][0]}
        while len(cats) < extra_count + 1 and len(cats) < n_cats:
            cats.add(int(rng.integers(0, n_cats)))
        assignments[i] = tuple(sorted(cats))
    return assignments


def _assign_contributors(
    rng: np.random.Generator,
    config: SystemConfig,
    doc_categories: list[tuple[int, ...]],
) -> list[int]:
    """Pick a contributing node for each document.

    Models Section 4.4: each node is interested in between 1 and 20
    categories, and contributes documents spanning those categories.  Every
    category that has documents is guaranteed at least one interested node
    (categories are dealt round-robin first), after which nodes draw their
    remaining interests uniformly.
    """
    n_nodes, n_cats = config.n_nodes, config.n_categories
    low, high = config.categories_per_node
    interests: list[set[int]] = [set() for _ in range(n_nodes)]

    # Round-robin one category per node first so that every category has a
    # potential contributor whenever n_nodes >= n_categories.
    order = rng.permutation(n_cats)
    for i, category_id in enumerate(order.tolist()):
        interests[i % n_nodes].add(category_id)

    # Rejection-sample the remaining interests from a pre-drawn buffer.
    # Batched ``rng.integers`` draws are value- and state-identical to the
    # historical one-at-a-time draws; if the buffer over-draws, the saved
    # state is restored and exactly the consumed count is re-drawn so the
    # stream stays aligned draw-for-draw.
    target_counts = rng.integers(low, high + 1, size=n_nodes)
    wants_list = np.minimum(target_counts, n_cats).tolist()
    deficit = sum(
        max(want - len(interests[i]), 0) for i, want in enumerate(wants_list)
    )
    state = rng.bit_generator.state
    drawn = 0
    buf: list[int] = []
    pos = 0
    for node_id in range(n_nodes):
        node_interests = interests[node_id]
        want = wants_list[node_id]
        while len(node_interests) < want:
            if pos == len(buf):
                batch = max(deficit + (deficit >> 3) + 64, 256)
                buf = rng.integers(0, n_cats, size=batch).tolist()
                drawn += batch
                pos = 0
            node_interests.add(buf[pos])
            pos += 1
    consumed = drawn - (len(buf) - pos)
    if consumed != drawn:
        rng.bit_generator.state = state
        if consumed:
            rng.integers(0, n_cats, size=consumed)

    by_category: list[list[int]] = [[] for _ in range(n_cats)]
    for node_id, cats in enumerate(interests):
        for category_id in cats:
            by_category[category_id].append(node_id)

    if doc_categories:
        primary = np.fromiter(
            (cats[0] for cats in doc_categories),
            dtype=np.int64,
            count=len(doc_categories),
        )
        counts = np.array([len(b) for b in by_category], dtype=np.int64)
        bounds = counts[primary]
        if bounds.min() > 0:
            # One vectorized bounded draw per document is value- and
            # state-identical to the historical per-document scalar draws.
            draws = rng.integers(0, bounds)
            flat = np.array(
                [node_id for b in by_category for node_id in b], dtype=np.int64
            )
            offsets = np.zeros(n_cats, dtype=np.int64)
            np.cumsum(counts[:-1], out=offsets[1:])
            return flat[offsets[primary] + draws].tolist()

    contributors: list[int] = []
    for categories in doc_categories:
        candidates = by_category[categories[0]]
        if candidates:
            contributors.append(int(candidates[rng.integers(0, len(candidates))]))
        else:
            # Degenerate tiny configurations: fall back to any node.
            contributors.append(int(rng.integers(0, n_nodes)))
    return contributors


@collector_paused
def build_system(config: SystemConfig) -> SystemInstance:
    """Construct a :class:`SystemInstance` from ``config``.

    Deterministic for a given ``config.seed``.
    """
    rng = np.random.default_rng(config.seed)

    doc_popularity = zipf_pmf(config.n_docs, config.doc_theta)
    # Shuffle ranks so document ids carry no popularity information; the
    # paper's algorithms must not depend on id ordering.
    rng.shuffle(doc_popularity)

    doc_categories = _assign_doc_categories(rng, config)
    contributors = _assign_contributors(rng, config, doc_categories)

    categories = [
        Category(category_id=i, name=f"category-{i}")
        for i in range(config.n_categories)
    ]
    capacities = rng.integers(
        config.capacity_range[0], config.capacity_range[1] + 1, size=config.n_nodes
    ).tolist()
    nodes = {
        node_id: Node(node_id=node_id, capacity_units=float(capacities[node_id]))
        for node_id in range(config.n_nodes)
    }

    pop_list = doc_popularity.tolist()
    doc_size = config.doc_size_bytes
    documents: dict[int, Document] = {
        doc_id: Document(
            doc_id=doc_id,
            popularity=pop_list[doc_id],
            categories=doc_categories[doc_id],
            size_bytes=doc_size,
        )
        for doc_id in range(config.n_docs)
    }

    # Group contributions per node in one pass (stable sort keeps each
    # node's documents in publication = doc-id order, exactly as repeated
    # Node.contribute calls would).
    contrib_arr = np.asarray(contributors, dtype=np.int64)
    by_node_order = np.argsort(contrib_arr, kind="stable")
    contributing_nodes, node_starts = np.unique(
        contrib_arr[by_node_order], return_index=True
    )
    node_ends = np.append(node_starts[1:], len(contrib_arr))
    for k, node_id in enumerate(contributing_nodes.tolist()):
        doc_ids = by_node_order[node_starts[k] : node_ends[k]].tolist()
        node = nodes[node_id]
        node.contributed_doc_ids = doc_ids
        node.stored_doc_ids = set(doc_ids)

    node_categories: dict[int, list[int]] = {}
    if config.multi_category_fraction <= 0:
        # Single-category fast path: per-category membership and popularity
        # via grouped array ops.  np.bincount accumulates weights in scan
        # (= doc-id) order, bitwise-identical to the incremental
        # Category.add_document sums it replaces.
        cats_arr = np.fromiter(
            (cats[0] for cats in doc_categories),
            dtype=np.int64,
            count=config.n_docs,
        )
        by_cat_order = np.argsort(cats_arr, kind="stable")
        populated_cats, cat_starts = np.unique(
            cats_arr[by_cat_order], return_index=True
        )
        cat_ends = np.append(cat_starts[1:], len(cats_arr))
        cat_pop = np.bincount(
            cats_arr, weights=doc_popularity, minlength=config.n_categories
        )
        for k, category_id in enumerate(populated_cats.tolist()):
            category = categories[category_id]
            category.doc_ids = by_cat_order[cat_starts[k] : cat_ends[k]].tolist()
            category.popularity = float(cat_pop[category_id])

        # node_categories keys follow each contributor's first appearance in
        # doc-id order (dict insertion order of the historical per-doc loop);
        # values are the node's distinct categories, ascending.
        _, first_doc = np.unique(contrib_arr, return_index=True)
        key_order = contributing_nodes[np.argsort(first_doc, kind="stable")]
        pair_keys = np.unique(contrib_arr * config.n_categories + cats_arr)
        pair_nodes = pair_keys // config.n_categories
        pair_cats = pair_keys % config.n_categories
        pair_starts = np.searchsorted(pair_nodes, contributing_nodes, side="left")
        pair_ends = np.searchsorted(pair_nodes, contributing_nodes, side="right")
        cats_of = {
            int(node_id): pair_cats[pair_starts[k] : pair_ends[k]].tolist()
            for k, node_id in enumerate(contributing_nodes.tolist())
        }
        for node_id in key_order.tolist():
            node_categories[node_id] = cats_of[node_id]
    else:
        for doc_id in range(config.n_docs):
            doc = documents[doc_id]
            contributor = contributors[doc_id]
            for category_id in doc.categories:
                categories[category_id].add_document(doc)
                cats = node_categories.setdefault(contributor, [])
                if category_id not in cats:
                    cats.append(category_id)
        for cats in node_categories.values():
            cats.sort()

    return SystemInstance(
        config=config,
        documents=documents,
        categories=categories,
        nodes=nodes,
        node_categories=node_categories,
        _next_doc_id=config.n_docs,
    )
