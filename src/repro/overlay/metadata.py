"""The per-node metadata structures of Figure 1.

Every node keeps three tables:

* **DT** (Document Table) — maps ids of *locally stored* documents to
  their document categories (a view of the peer's stored documents).
* **DCRT** (Document Category Routing Table) — maps each document category
  to the cluster id currently serving it.  Extended (Section 6.1.2) with a
  per-category ``move_counter`` so that conflicting updates arriving via
  different gossip paths resolve deterministically: the entry with the
  higher counter wins.
* **NRT** (Node Routing Table) — maps cluster ids to known member node
  ids.  Because NRTs "can grow very fast, an LRU replacement algorithm can
  be adopted" (Section 6.2): per-cluster entries are capped with
  least-recently-used eviction.

Beside the three tables a peer keeps, per cluster it knows, the capacity
every member advertises (Section 6.1.1): a :class:`CapabilityTable`.
Query dispatch draws a member with probability proportional to that
capacity (:func:`weighted_index`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, islice
from typing import TYPE_CHECKING, Mapping

from repro.frozen import frozen_dataclass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.messages import DocInfo

__all__ = [
    "CapabilityTable", "DocumentTable", "DCRT", "DCRTEntry", "NRT", "weighted_index",
]

#: rejected trials after which a weighted draw scans the candidates
#: instead, which draws from the same distribution.  At the model's 1-5
#: capacity units a trial is accepted with probability 1/5 or more (1/1.7
#: on average), so 64 rejections in a row come less than once in a million
#: draws; the bound keeps a table of tiny advertised capacities from
#: spinning.
_MAX_TRIALS = 64


class DocumentTable:
    """DT: locally stored document id -> category ids.

    A read-only view of the peer's ``docs`` (id -> :class:`DocInfo`, which
    carries the categories): the DT is the same keys in the same order,
    so it reads them there instead of keeping a second dict per peer.
    """

    __slots__ = ("_docs",)

    def __init__(self, docs: Mapping[int, "DocInfo"]) -> None:
        self._docs = docs

    def categories_of(self, doc_id: int) -> tuple[int, ...]:
        info = self._docs.get(doc_id)
        return info.categories if info is not None else ()

    def has_document(self, doc_id: int) -> bool:
        return doc_id in self._docs

    def has_category(self, category_id: int) -> bool:
        """Whether any locally stored document belongs to ``category_id``.

        The publish protocol uses this to decide if the node already
        announced a contribution to the category (Section 6.2, step 2).
        """
        return any(category_id in info.categories for info in self._docs.values())

    def docs_in_category(
        self, category_id: int, limit: int | None = None
    ) -> list[int]:
        """Stored documents of ``category_id`` in table order; with a
        ``limit``, the first that many (none for a limit below one), and
        the scan stops there."""
        matched = (
            doc_id
            for doc_id, info in self._docs.items()
            if category_id in info.categories
        )
        return list(islice(matched, None if limit is None else max(limit, 0)))

    def doc_ids(self) -> list[int]:
        return list(self._docs)

    def __len__(self) -> int:
        return len(self._docs)


@frozen_dataclass
class DCRTEntry:
    """A DCRT row: which cluster serves a category, and how fresh that is."""

    cluster_id: int
    move_counter: int = 0


@dataclass(slots=True)
class DCRT:
    """Document Category Routing Table with move-counter conflict resolution.

    Unknown categories resolve to cluster 0 — the paper's default mapping
    for zero-document categories, which makes concurrent first publishes of
    a new category converge on the same cluster (Section 6.2, step 3).

    World bootstrap hands every peer the same table (:meth:`share`); a
    peer copies it on the first write that changes a row, so a row is
    written only through :meth:`_writable`.
    """

    _entries: dict[int, DCRTEntry] = field(default_factory=dict)
    #: optional ``(category_id, entry)`` callback fired whenever a row is
    #: installed or replaced — the durability journal's write-ahead hook.
    on_change: object | None = None
    #: whether ``_entries`` is a table other peers also hold.
    _shared: bool = field(default=False, init=False, repr=False)

    DEFAULT_CLUSTER = 0

    def cluster_of(self, category_id: int) -> int:
        entry = self._entries.get(category_id)
        return entry.cluster_id if entry is not None else self.DEFAULT_CLUSTER

    def entry(self, category_id: int) -> DCRTEntry:
        entry = self._entries.get(category_id)
        return entry if entry is not None else DCRTEntry(self.DEFAULT_CLUSTER, 0)

    def merge(self, category_id: int, entry: DCRTEntry) -> bool:
        """Apply an update, keeping the entry with the higher move counter.

        Returns True if the local table changed.  Equal counters keep the
        existing entry (updates are idempotent).
        """
        current = self._entries.get(category_id)
        if current is None or entry.move_counter > current.move_counter:
            self._writable()[category_id] = entry
            if self.on_change is not None:
                self.on_change(category_id, entry)
            return True
        return False

    def set(self, category_id: int, cluster_id: int, move_counter: int = 0) -> None:
        """Unconditionally install an entry (bootstrap and recovery)."""
        entry = DCRTEntry(cluster_id, move_counter)
        if self._entries.get(category_id) != entry:
            self._writable()[category_id] = entry
        if self.on_change is not None:
            self.on_change(category_id, entry)

    def share(self, entries: dict[int, DCRTEntry]) -> None:
        """Make ``entries`` this table, held rather than copied: the whole
        world's bootstrap hands every peer one dict.  The caller must not
        change it afterwards; a peer that changes a row copies it first."""
        self._entries = entries
        self._shared = True
        if self.on_change is not None:
            for category_id, entry in entries.items():
                self.on_change(category_id, entry)

    def _writable(self) -> dict[int, DCRTEntry]:
        """This peer's own rows, copied from the shared table on first use."""
        if self._shared:
            self._entries = dict(self._entries)
            self._shared = False
        return self._entries

    def snapshot(self) -> dict[int, DCRTEntry]:
        """A copy of all entries — what nodes exchange during gossip."""
        return dict(self._entries)

    def merge_snapshot(self, snapshot: dict[int, DCRTEntry]) -> int:
        """Merge a full snapshot; returns the number of entries updated."""
        changed = 0
        for category_id, entry in snapshot.items():
            if self.merge(category_id, entry):
                changed += 1
        return changed

    def categories(self) -> list[int]:
        return sorted(self._entries)

    def items(self) -> list[tuple[int, DCRTEntry]]:
        """All entries as sorted ``(category_id, entry)`` pairs.

        Read-only introspection for invariant checkers: entries come back
        in deterministic order and mutating the list does not touch the
        table.
        """
        return sorted(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)


class CapabilityTable(dict):
    """One cluster's advertised capacities: member id -> capacity units.

    ``peak`` is the largest capacity in the table and never less than the
    one unit a member missing from it counts as.  It is the acceptance
    bound of :func:`weighted_index`, and every write keeps it, so no draw
    scans the table.  A ``shared`` table (world bootstrap hands one to
    every peer that knows the cluster) refuses writes; a peer that learns
    something else copies it first (``Peer.own_capabilities``).  Entries
    are written by item only, so that ``peak`` stays right.
    """

    __slots__ = ("peak", "shared")

    def __init__(self, entries: Mapping[int, float]) -> None:
        super().__init__(entries)
        self.shared = False
        self.peak = max(1.0, max(self.values(), default=1.0))

    def __setitem__(self, node_id: int, capacity: float) -> None:
        self._check_writable()
        old = self.get(node_id)
        super().__setitem__(node_id, capacity)
        if capacity >= self.peak:
            self.peak = capacity
        elif old == self.peak:
            self.peak = max(1.0, max(self.values()))

    def __delitem__(self, node_id: int) -> None:
        self._check_writable()
        old = self[node_id]
        super().__delitem__(node_id)
        if old == self.peak:
            self.peak = max(1.0, max(self.values(), default=1.0))

    def _check_writable(self) -> None:
        if self.shared:
            raise TypeError("a shared capability table is read-only")

    def _refuse(self, *args, **kwargs):
        raise TypeError("a capability table is written by item only")

    clear = pop = popitem = setdefault = update = __ior__ = _refuse


def weighted_index(candidates: list[int], weights: CapabilityTable | None, rng) -> int:
    """Index of a candidate drawn with probability proportional to its
    advertised capacity in ``weights``; a member it does not name counts
    as one unit, and so does every member when there is no table.

    A rejection draw, one ``rng.random()`` a trial: its integer part (x the
    number of candidates) picks an index, its fractional part x
    ``weights.peak`` is the acceptance test.  Where every weight is one
    unit the first trial is accepted, which is a uniform draw.
    """
    n = len(candidates)
    if weights is None:
        return int(rng.random() * n)
    get, peak, random = weights.get, weights.peak, rng.random
    for _ in range(_MAX_TRIALS):
        u = random() * n
        index = int(u)
        if (u - index) * peak < get(candidates[index], 1.0):
            return index
    cumulative = list(accumulate(get(node_id, 1.0) for node_id in candidates))
    return min(bisect_right(cumulative, random() * cumulative[-1]), n - 1)


class NRT:
    """Node Routing Table: cluster id -> known member nodes, LRU-capped.

    A cluster's known members are one list, least recently touched first;
    ``max_nodes_per_cluster`` bounds it, and touching an entry (adding it
    again, or selecting it for routing) moves it to the end.
    """

    __slots__ = ("max_nodes_per_cluster", "_clusters")

    def __init__(self, max_nodes_per_cluster: int = 64) -> None:
        if max_nodes_per_cluster < 1:
            raise ValueError(
                f"max_nodes_per_cluster must be >= 1, got {max_nodes_per_cluster}"
            )
        self.max_nodes_per_cluster = max_nodes_per_cluster
        self._clusters: dict[int, list[int]] = {}

    def add(self, cluster_id: int, node_id: int) -> None:
        """Record that ``node_id`` belongs to ``cluster_id`` (refreshes LRU)."""
        members = self._clusters.setdefault(cluster_id, [])
        if node_id in members:
            members.remove(node_id)
        members.append(node_id)
        if len(members) > self.max_nodes_per_cluster:
            del members[0]

    def add_many(self, cluster_id: int, node_ids) -> None:
        """:meth:`add` every id in order, trimming once at the end.

        An LRU's final state is "order by last touch, keep the last
        ``max_nodes_per_cluster``": the batch in order (a repeated id at
        its last place) behind whatever of the table it did not touch —
        and a batch that fills the table on its own is the whole table.
        """
        batch = list(node_ids)
        if not batch:
            return
        touched = set(batch)
        if len(touched) != len(batch):
            batch = list(dict.fromkeys(reversed(batch)))
            batch.reverse()
        room = self.max_nodes_per_cluster - len(batch)
        members = self._clusters.get(cluster_id)
        if room < 0:
            del batch[:-room]
        elif room and members:
            kept = [node_id for node_id in members if node_id not in touched]
            batch[:0] = kept[-room:]
        self._clusters[cluster_id] = batch

    def remove_node(self, node_id: int) -> None:
        """Remove a node from every cluster (on a leave notice)."""
        for members in self._clusters.values():
            if node_id in members:
                members.remove(node_id)

    def nodes_in(self, cluster_id: int) -> list[int]:
        members = self._clusters.get(cluster_id)
        return list(members) if members is not None else []

    def random_node(
        self, cluster_id: int, rng, weights: CapabilityTable | None, exclude=()
    ) -> int | None:
        """Pick a known member of ``cluster_id``, weighted by capacity.

        Section 3.3 draws uniformly, so that members "get an equal share of
        the workload targeting their cluster"; that assumes identical
        peers.  Fair load is load per capacity unit (Section 4.3.1), so a
        member is drawn in proportion to the capacity it advertises in
        ``weights`` (:func:`weighted_index`).  ``exclude`` removes
        candidates (already-tried failover targets, suspected-dead nodes)
        before the draw; with nothing to exclude the rng consumption is
        identical to the plain call.  The chosen entry becomes the most
        recently used.
        """
        members = self._clusters.get(cluster_id)
        if not members:
            return None
        if exclude:
            node_ids = [node_id for node_id in members if node_id not in exclude]
            if not node_ids:
                return None
            choice = node_ids[weighted_index(node_ids, weights, rng)]
            members.remove(choice)
        else:
            choice = members.pop(weighted_index(members, weights, rng))
        members.append(choice)
        return choice

    def clusters(self) -> list[int]:
        return sorted(self._clusters)

    def __contains__(self, cluster_id: int) -> bool:
        return bool(self._clusters.get(cluster_id))
