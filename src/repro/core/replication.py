"""Replica placement for intra-cluster load balancing (Section 4.3.3).

When nodes cannot store all cluster content, random target selection alone
no longer balances intra-cluster load, because different nodes hold content
of different total popularity.  The paper's policy:

* For each category ``s`` stored in cluster ``c_i`` the total storage need
  is ``size(s) = n_docs * n_reps * size_of_doc``, divided into ``|N_i|``
  pieces — one per cluster node (each document gets ``n_reps`` replicas
  spread over distinct nodes).
* If document popularity within ``s`` is skewed, the ``m`` most popular
  documents covering a significant share of the probability mass (the
  paper's example: >= 35%, which under realistic Zipf laws is under 10% of
  the documents) are additionally replicated on *every* node of the
  cluster.

The result is that per-node stored popularity is (almost) equal, so the
Section 3.3 random-node dispatch keeps intra-cluster load balanced.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.bulk import collector_paused
from repro.core.fairness import jain_fairness
from repro.core.maxfair import Assignment, maxfair
from repro.core.popularity import build_category_stats, cluster_members
from repro.model.system import SystemConfig, SystemInstance, build_system
from repro.model.workload import zipf_category_scenario
from repro.model.zipf import top_mass_count

__all__ = [
    "ReplicationPlan",
    "plan_replication",
    "category_storage_requirement",
    "build_world",
]


def category_storage_requirement(
    n_docs: int, n_reps: int, size_of_doc: int
) -> int:
    """``size(s) = n_docs * n_reps * size_of_doc`` — Section 4.3.3."""
    if min(n_docs, n_reps, size_of_doc) < 0:
        raise ValueError("all arguments must be non-negative")
    return n_docs * n_reps * size_of_doc


@dataclass(slots=True)
class ReplicationPlan:
    """Where every replica goes, plus per-node accounting.

    Iteration order is part of the contract: ``P2PSystem._bootstrap``
    stores documents by walking ``node_docs`` and each set in it, so the
    order fixes every ``peer.docs`` and, through it, each later seeded
    pick.  :func:`plan_replication` therefore adds nodes to the dicts and
    document ids to the sets in one defined sequence — cluster by cluster,
    category by category, base replicas in popularity order, then the hot
    documents in popularity order at each member — and a faster way of
    computing the plan must reproduce that sequence, not just the mappings.

    Attributes
    ----------
    node_docs:
        node id -> set of document ids stored (replicas and hot copies).
    node_popularity:
        node id -> total popularity of the documents it stores, counting a
        document's full popularity (a request for it may land on this node).
    node_bytes:
        node id -> bytes stored under the plan.
    hot_doc_ids:
        Documents replicated on every node of their cluster.
    """

    node_docs: dict[int, set[int]] = field(default_factory=dict)
    node_popularity: dict[int, float] = field(default_factory=dict)
    node_bytes: dict[int, int] = field(default_factory=dict)
    hot_doc_ids: set[int] = field(default_factory=set)
    #: (node id, cluster id) -> stored popularity of that cluster's content
    #: at that node; the balancing target (a node serving several clusters
    #: must hold a fair share of *each* cluster's popularity).
    node_cluster_popularity: dict[tuple[int, int], float] = field(
        default_factory=dict
    )

    def intra_cluster_fairness(
        self, instance: SystemInstance, assignment: Assignment, cluster_id: int
    ) -> float:
        """Jain fairness of *expected request load* across a cluster's nodes.

        This models Section 3.3's uniform holder choice: a request for a
        document is served by one of the nodes holding a replica, each
        equally likely, so a node's expected load is ``sum over stored
        docs of p(d) / n_holders(d)``.  The overlay draws holders by the
        capacity they advertise instead (``metadata.weighted_index``), so
        this is the placement's balance under the paper's rule, not a
        prediction of the load the simulator serves; E2 prints the served
        load per capacity unit beside it.
        """
        members = cluster_members(instance, assignment.category_to_cluster)
        if cluster_id >= len(members) or not members[cluster_id]:
            return 1.0

        def in_cluster(doc_id: int) -> bool:
            doc = instance.documents.get(doc_id)
            if doc is None:
                return False
            return any(
                int(assignment.category_to_cluster[c]) == cluster_id
                for c in doc.categories
            )

        holders: dict[int, int] = {}
        for node_id in members[cluster_id]:
            for doc_id in self.node_docs.get(node_id, ()):
                if in_cluster(doc_id):
                    holders[doc_id] = holders.get(doc_id, 0) + 1
        loads = []
        for node_id in members[cluster_id]:
            load = 0.0
            for doc_id in self.node_docs.get(node_id, ()):
                if doc_id in holders and holders[doc_id] > 0:
                    load += (
                        instance.documents[doc_id].popularity / holders[doc_id]
                    )
            loads.append(load)
        return jain_fairness(loads)

    def max_node_bytes(self) -> int:
        return max(self.node_bytes.values(), default=0)

    def mean_node_bytes(self) -> float:
        if not self.node_bytes:
            return 0.0
        return sum(self.node_bytes.values()) / len(self.node_bytes)


#: replica-placement policies (the paper's plus future-work item vii
#: alternatives with popularity-dependent replica counts).
POLICIES = ("hot_mass", "uniform", "sqrt", "proportional")


def _replica_counts(
    policy: str, popularity: np.ndarray, n_reps: int, n_members: int
) -> np.ndarray:
    """Per-document replica counts under a replication policy.

    All policies spend (about) the same budget of ``n_reps * n_docs``
    replicas; they differ in how the budget follows popularity:

    * ``hot_mass``, ``uniform`` — every document gets ``n_reps`` (the
      paper's base; ``hot_mass`` adds its hot copies on top);
    * ``sqrt`` — counts proportional to sqrt(popularity) (the classic
      square-root replication of Cohen & Shapiro for random search);
    * ``proportional`` — counts proportional to popularity.
    """
    n_docs = len(popularity)
    if policy in ("hot_mass", "uniform"):
        counts = np.full(n_docs, n_reps)
    else:
        weight = np.sqrt(popularity) if policy == "sqrt" else popularity.copy()
        total = weight.sum()
        if total <= 0:
            counts = np.full(n_docs, n_reps)
        else:
            counts = np.maximum(
                1, np.round(weight / total * n_reps * n_docs)
            ).astype(int)
    return np.minimum(counts, max(1, n_members))


def _place_category(
    instance: SystemInstance,
    plan: ReplicationPlan,
    in_cluster: dict[int, float],
    doc_ids: list[int],
    members: list[int],
    budgeted: bool,
    n_reps: int,
    hot_mass: float,
    policy: str,
) -> None:
    """Place one category's replicas over ``members``.

    ``in_cluster`` is the serving cluster's column of
    ``plan.node_cluster_popularity`` — node id -> stored popularity of that
    cluster's content — which the caller files under the cluster's id.
    ``budgeted`` says whether some member has a storage budget.

    Base replicas go to the nodes currently holding the least of *this
    cluster's* popularity via a heap (a node serving several clusters must
    carry a fair share of each), never putting two replicas of one document
    on the same node when the cluster is large enough.  Under the paper's
    ``hot_mass`` policy, hot documents then get one copy on every member;
    the alternative policies vary the per-document replica count instead.
    """
    documents, nodes = instance.documents, instance.nodes
    node_docs = plan.node_docs
    node_popularity = plan.node_popularity
    node_bytes = plan.node_bytes
    docs = sorted(
        [documents[doc_id] for doc_id in doc_ids],
        key=attrgetter("popularity"),
        reverse=True,
    )
    popularity = np.array([doc.popularity for doc in docs])
    n_hot = (
        top_mass_count(popularity, hot_mass)
        if policy == "hot_mass" and hot_mass > 0
        else 0
    )
    replica_counts = _replica_counts(
        policy, popularity, n_reps, len(members)
    ).tolist()

    # (stored in-cluster popularity, node id) heap over members.  A member's
    # key is its ``in_cluster`` value whenever it is on the heap (it changes
    # only while the member is off it), so a popped key is carried forward
    # instead of read again.
    heap = [(in_cluster.get(node_id, 0.0), node_id) for node_id in members]
    heapify(heap)
    for doc, replicas in zip(docs[n_hot:], replica_counts[n_hot:]):
        doc_id, size, weight = doc.doc_id, doc.size_bytes, doc.popularity
        taken = []
        placed = 0
        # Pop candidates, each member at most once, looking for room; full
        # nodes go back on the heap but do not receive the replica.
        while placed < replicas and heap:
            stored, node_id = entry = heappop(heap)
            docs_here = node_docs.get(node_id)
            if docs_here is None:
                docs_here = node_docs[node_id] = set()
            used = node_bytes.get(node_id, 0) + size
            budget = nodes[node_id].storage_bytes
            if doc_id in docs_here:
                placed += 1
            elif budget is None or used <= budget:
                docs_here.add(doc_id)
                node_bytes[node_id] = used
                node_popularity[node_id] = node_popularity.get(node_id, 0.0) + weight
                stored = in_cluster[node_id] = stored + weight
                entry = (stored, node_id)
                placed += 1
            taken.append(entry)
        for entry in taken:
            heappush(heap, entry)

    if not n_hot:
        return
    hot_docs = docs[:n_hot]
    # Lists in popularity order: ``set.update`` adds in the order it is given.
    hot_ids = [doc.doc_id for doc in hot_docs]
    hot_bytes = sum([doc.size_bytes for doc in hot_docs])
    plan.hot_doc_ids.update(hot_ids)
    held = [node_docs.setdefault(node_id, set()) for node_id in members]
    # A member can lack the room only under a budget, and can hold a hot
    # document already only if it has another category it was placed under.
    could_fail = (
        budgeted or max(map(len, map(attrgetter("categories"), hot_docs))) > 1
    )
    for node_id, docs_here in zip(members, held) if could_fail else ():
        budget = nodes[node_id].storage_bytes
        if not docs_here.isdisjoint(hot_ids) or (
            budget is not None and node_bytes.get(node_id, 0) + hot_bytes > budget
        ):
            break
    else:
        # Every member takes the whole hot set (the usual case: it holds
        # none of it and has the room), so the copies are placed in bulk.
        # One vector add per document, in popularity order, gives each
        # member the float additions the copy-by-copy loop below would.
        sums = np.array(
            [
                [node_popularity.get(node_id, 0.0) for node_id in members],
                [in_cluster.get(node_id, 0.0) for node_id in members],
            ]
        )
        for doc in hot_docs:
            sums += doc.popularity
        node_popularity.update(zip(members, sums[0].tolist()))
        in_cluster.update(zip(members, sums[1].tolist()))
        for node_id, docs_here in zip(members, held):
            docs_here.update(hot_ids)
            node_bytes[node_id] = node_bytes.get(node_id, 0) + hot_bytes
        return
    # Some member holds a hot document already (placed under another of its
    # categories) or runs out of budget part-way: copy by copy.
    for doc in hot_docs:
        doc_id, size, weight = doc.doc_id, doc.size_bytes, doc.popularity
        for node_id, docs_here in zip(members, held):
            used = node_bytes.get(node_id, 0) + size
            budget = nodes[node_id].storage_bytes
            if doc_id in docs_here or (budget is not None and used > budget):
                continue
            docs_here.add(doc_id)
            node_bytes[node_id] = used
            node_popularity[node_id] = node_popularity.get(node_id, 0.0) + weight
            in_cluster[node_id] = in_cluster.get(node_id, 0.0) + weight


@collector_paused
def plan_replication(
    instance: SystemInstance,
    assignment: Assignment,
    n_reps: int = 2,
    hot_mass: float = 0.35,
    policy: str = "hot_mass",
    exclude_free_riders: bool = False,
) -> ReplicationPlan:
    """Compute a replica placement for a full assignment.

    Parameters
    ----------
    instance:
        The system (documents, categories, nodes).
    assignment:
        A complete category -> cluster assignment (e.g. MaxFair output).
    n_reps:
        Desired (mean) replicas per document (the paper's examples use 2
        and 5).
    hot_mass:
        For the ``hot_mass`` policy: fraction of each category's popularity
        mass whose top documents are replicated on every cluster node (the
        paper's example: 0.35).  Set to 0 to disable hot replication (the
        E2 ablation baseline).
    policy:
        ``hot_mass`` (the paper's Section 4.3.3 policy), or one of the
        future-work-(vii) alternatives — ``uniform``, ``sqrt``,
        ``proportional`` — which vary the per-document replica count under
        (about) the same total budget instead of using a hot set.
    exclude_free_riders:
        Skip nodes with :attr:`~repro.model.nodes.Node.is_free_rider`
        (no contributions) as replica targets.  Off by default: in the
        generated worlds a contribution-less node is usually a capacity
        provider, exactly where replicas belong — enable this only for
        scenarios that designate true free riders (consume-only nodes).
    """
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    if not 0.0 <= hot_mass < 1.0:
        raise ValueError(f"hot_mass must be in [0, 1), got {hot_mass}")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    if not assignment.is_complete():
        raise ValueError("replication needs a complete assignment")

    members = cluster_members(instance, assignment.category_to_cluster)
    plan = ReplicationPlan()
    for cluster_id in range(assignment.n_clusters):
        cluster_nodes = sorted(members[cluster_id]) if cluster_id < len(members) else []
        if exclude_free_riders:
            cluster_nodes = [
                node_id
                for node_id in cluster_nodes
                if not instance.nodes[node_id].is_free_rider
            ]
        if not cluster_nodes:
            continue
        in_cluster: dict[int, float] = {}
        budgets = [instance.nodes[node_id].storage_bytes for node_id in cluster_nodes]
        budgeted = budgets.count(None) < len(budgets)
        for category_id in assignment.categories_in(cluster_id):
            doc_ids = instance.categories[category_id].doc_ids
            if doc_ids:
                _place_category(
                    instance,
                    plan,
                    in_cluster,
                    doc_ids,
                    cluster_nodes,
                    budgeted,
                    n_reps,
                    hot_mass,
                    policy,
                )
        plan.node_cluster_popularity.update(
            {(node_id, cluster_id): stored for node_id, stored in in_cluster.items()}
        )
    return plan


def build_world(
    source: SystemConfig | SystemInstance | None = None,
    *,
    scale: float = 0.02,
    seed: int = 7,
    n_reps: int = 2,
    hot_mass: float = 0.35,
    exclude_free_riders: bool = False,
) -> tuple[SystemInstance, Assignment, ReplicationPlan]:
    """``(instance, assignment, plan)`` — the balanced-world pipeline.

    The one place the instance -> category statistics -> MaxFair ->
    replication-plan sequence is written: every experiment arm, the chaos
    harness and :func:`repro.api.build_system` build their worlds here, so
    two arms of a comparison differ only in what their caller changes.

    ``source`` is a :class:`SystemConfig` to build from, an already built
    (and possibly altered, e.g. free riders designated)
    :class:`SystemInstance`, or None for the paper's Zipf scenario at
    ``scale``/``seed``.  ``n_reps``, ``hot_mass`` and
    ``exclude_free_riders`` go to :func:`plan_replication` unchanged.
    """
    if source is None:
        instance = zipf_category_scenario(scale=scale, seed=seed)
    elif isinstance(source, SystemConfig):
        instance = build_system(source)
    else:
        instance = source
    stats = build_category_stats(instance)
    assignment = maxfair(instance, stats=stats)
    plan = plan_replication(
        instance,
        assignment,
        n_reps=n_reps,
        hot_mass=hot_mass,
        exclude_free_riders=exclude_free_riders,
    )
    return instance, assignment, plan
