"""A hybrid (central-index) P2P system, Napster style.

The paper's introduction motivates P2P by the weaknesses of central
control: "central points of failure and performance bottlenecks".  This
baseline quantifies that bottleneck (following the hybrid-P2P analysis of
Yang & Garcia-Molina, VLDB 2001): a single directory node indexes every
document's holders; each query costs one round trip to the directory plus
one hop to a holder, and the directory's load grows with *every* query in
the system.

Measured quantities:

* hops (always 2 when the document exists: index + holder);
* directory load vs. the busiest data node;
* per-node data-serving load (the directory picks a random holder, so
  data load balances across replicas — the bottleneck is the index).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["HybridIndexNetwork", "HybridQueryResult"]

#: the directory node's id, outside the range of peer ids.
DIRECTORY_ID = -1


@dataclass(frozen=True, slots=True)
class HybridQueryResult:
    """Outcome of one central-index query."""

    found: bool
    hops: int
    responder: int | None


@dataclass(slots=True)
class _HNode:
    node_id: int
    doc_ids: set[int] = field(default_factory=set)
    requests_served: int = 0


class HybridIndexNetwork:
    """A central directory plus data-holding peers.

    The directory is a dedicated node (id :data:`DIRECTORY_ID`); peers
    register their documents with it on "connect".
    """

    def __init__(self, node_ids) -> None:
        node_list = list(node_ids)
        if not node_list:
            raise ValueError("network needs at least one node")
        if DIRECTORY_ID in node_list:
            raise ValueError("the directory's id must not collide with a peer id")
        self.directory_id = DIRECTORY_ID
        self.directory_load = 0
        self.nodes: dict[int, _HNode] = {
            node_id: _HNode(node_id=node_id) for node_id in node_list
        }
        #: the directory's index: doc id -> holder node ids.
        self._index: dict[int, list[int]] = {}

    def place_document(self, doc_id: int, holder_ids) -> None:
        """A peer registers (replicas of) a document with the directory."""
        holders = self._index.setdefault(doc_id, [])
        for holder in holder_ids:
            self.nodes[holder].doc_ids.add(doc_id)
            if holder not in holders:
                holders.append(holder)

    def query(self, doc_id: int, rng: np.random.Generator) -> HybridQueryResult:
        """One lookup: ask the directory, then fetch from a random holder."""
        self.directory_load += 1
        holders = self._index.get(doc_id)
        if not holders:
            return HybridQueryResult(found=False, hops=1, responder=None)
        holder = holders[int(rng.integers(0, len(holders)))]
        self.nodes[holder].requests_served += 1
        return HybridQueryResult(found=True, hops=2, responder=holder)

    def run_queries(
        self, doc_ids, rng: np.random.Generator
    ) -> tuple[list[HybridQueryResult], dict[int, int]]:
        """Run a query stream; returns per-query results and peer loads.

        The directory's own load is in :attr:`directory_load` — compare it
        with ``max(loads.values())`` to see the central bottleneck.
        """
        results = [self.query(doc_id, rng) for doc_id in doc_ids]
        loads = {
            node.node_id: node.requests_served for node in self.nodes.values()
        }
        return results, loads
