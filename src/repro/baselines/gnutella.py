"""Gnutella-style unstructured flooding search.

The paper's response-time critique: in systems like Gnutella and Freenet
"requests are passed from peer to peer, until either one is found that
stores the desired document(s), or a user-determined number-of-hops count
is reached and the system gives up".  This baseline reproduces exactly
that behaviour: a random overlay graph, breadth-first TTL-bounded
flooding, and per-node load accounting.

Measured quantities (for the E1 comparison):

* hops to the first replica (or failure when the TTL expires);
* success rate as a function of the TTL;
* messages generated per query (flooding cost);
* per-node served-request load.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = ["GnutellaNetwork", "FloodResult"]

#: iterative deepening's flood TTLs, shallow to deep [7].
DEEPENING_TTLS = (2, 4, 7)
#: random-walk search: walkers per query and each walker's step budget.
WALKERS = 4
MAX_WALK_STEPS = 128


@dataclass(frozen=True, slots=True)
class FloodResult:
    """Outcome of one flooded query."""

    found: bool
    hops: int
    messages: int
    responder: int | None


@dataclass(slots=True)
class _GNode:
    node_id: int
    neighbors: set[int] = field(default_factory=set)
    doc_ids: set[int] = field(default_factory=set)
    requests_served: int = 0


class GnutellaNetwork:
    """A random unstructured overlay with TTL flooding.

    Parameters
    ----------
    node_ids:
        Peer identities.
    rng:
        Topology randomness.
    degree:
        Target connections per node (Gnutella measurements showed small
        average degrees; 4 is the customary simulation default).
    """

    def __init__(self, node_ids, rng: np.random.Generator, degree: int = 4) -> None:
        node_list = list(node_ids)
        if not node_list:
            raise ValueError("network needs at least one node")
        self.nodes: dict[int, _GNode] = {
            node_id: _GNode(node_id=node_id) for node_id in node_list
        }
        order = [node_list[i] for i in rng.permutation(len(node_list))]
        # Random chain for connectivity, then random extra edges.
        for previous, current in zip(order, order[1:]):
            self.nodes[previous].neighbors.add(current)
            self.nodes[current].neighbors.add(previous)
        extra = max(0, degree - 2)
        for node_id in order:
            for _ in range(extra):
                other = order[int(rng.integers(0, len(order)))]
                if other != node_id:
                    self.nodes[node_id].neighbors.add(other)
                    self.nodes[other].neighbors.add(node_id)

    def place_document(self, doc_id: int, holder_ids) -> None:
        """Store a document (and its replicas) at the given nodes."""
        for holder in holder_ids:
            self.nodes[holder].doc_ids.add(doc_id)

    def flood(self, start: int, doc_id: int, ttl: int) -> FloodResult:
        """TTL-bounded flood from ``start``; returns the first holder hit.

        BFS models the synchronized hop-by-hop expansion.  Crucially the
        flood does **not** stop when a holder answers — Gnutella nodes
        cannot recall messages already forwarded — so the message count is
        the full TTL-bounded propagation cost.  (A local hit costs
        nothing: the node answers itself before forwarding.)
        """
        if ttl < 0:
            raise ValueError(f"ttl must be non-negative, got {ttl}")
        if start not in self.nodes:
            raise KeyError(f"unknown start node {start}")
        if doc_id in self.nodes[start].doc_ids:
            self.nodes[start].requests_served += 1
            return FloodResult(found=True, hops=0, messages=0, responder=start)
        seen = {start}
        frontier = deque([(start, 0)])
        messages = 0
        first_hit: tuple[int, int] | None = None  # (hops, responder)
        while frontier:
            current, depth = frontier.popleft()
            if depth >= ttl:
                continue
            for neighbor in sorted(self.nodes[current].neighbors):
                if neighbor in seen:
                    continue
                messages += 1
                seen.add(neighbor)
                if first_hit is None and doc_id in self.nodes[neighbor].doc_ids:
                    first_hit = (depth + 1, neighbor)
                frontier.append((neighbor, depth + 1))
        if first_hit is not None:
            hops, responder = first_hit
            self.nodes[responder].requests_served += 1
            return FloodResult(
                found=True, hops=hops, messages=messages, responder=responder
            )
        return FloodResult(found=False, hops=ttl, messages=messages, responder=None)

    def iterative_deepening(self, start: int, doc_id: int) -> FloodResult:
        """Yang & Garcia-Molina's iterative deepening [7].

        Flood with a small TTL first; only widen when the shallow search
        misses.  Saves messages when content is near (the common case with
        replication) at the price of re-visiting the inner rings on a miss.
        """
        total_messages = 0
        last = FloodResult(found=False, hops=0, messages=0, responder=None)
        for ttl in DEEPENING_TTLS:
            result = self.flood(start, doc_id, ttl)
            total_messages += result.messages
            if result.found:
                # The earlier rounds' traffic still happened; account it.
                return FloodResult(
                    found=True,
                    hops=result.hops,
                    messages=total_messages,
                    responder=result.responder,
                )
            last = result
        return FloodResult(
            found=False, hops=last.hops, messages=total_messages, responder=None
        )

    def random_walk(
        self,
        start: int,
        doc_id: int,
        rng: np.random.Generator,
    ) -> FloodResult:
        """k independent random walkers [7] instead of flooding.

        Each walker steps to a uniformly random neighbour until it finds a
        holder or exhausts its step budget; one message per step.  Message
        cost is bounded by ``WALKERS * MAX_WALK_STEPS`` regardless of the
        overlay size — the trade-off is a longer (and unbounded-variance)
        response path.
        """
        if doc_id in self.nodes[start].doc_ids:
            self.nodes[start].requests_served += 1
            return FloodResult(found=True, hops=0, messages=0, responder=start)
        messages = 0
        best: FloodResult | None = None
        for _ in range(WALKERS):
            current = start
            for step in range(1, MAX_WALK_STEPS + 1):
                neighbors = sorted(self.nodes[current].neighbors)
                if not neighbors:
                    break
                current = neighbors[int(rng.integers(0, len(neighbors)))]
                messages += 1
                if doc_id in self.nodes[current].doc_ids:
                    if best is None or step < best.hops:
                        best = FloodResult(
                            found=True,
                            hops=step,
                            messages=messages,
                            responder=current,
                        )
                    break
        if best is not None:
            self.nodes[best.responder].requests_served += 1
            return FloodResult(
                found=True,
                hops=best.hops,
                messages=messages,
                responder=best.responder,
            )
        return FloodResult(found=False, hops=MAX_WALK_STEPS, messages=messages, responder=None)

    def run_queries(
        self,
        doc_ids,
        rng: np.random.Generator,
        ttl: int = 7,
        strategy: str = "flood",
    ) -> tuple[list[FloodResult], dict[int, int]]:
        """Run a query stream from random starting nodes.

        ``strategy`` selects the search mechanism: ``flood`` (classical
        Gnutella, default TTL 7), ``iterative_deepening``, or
        ``random_walk`` — the [7] improvements the paper notes "can be
        applied to our architecture as well".
        """
        if strategy not in ("flood", "iterative_deepening", "random_walk"):
            raise ValueError(f"unknown strategy {strategy!r}")
        node_list = sorted(self.nodes)
        doc_list = list(doc_ids)
        starts = rng.integers(0, len(node_list), size=len(doc_list))
        results = []
        for i, doc_id in enumerate(doc_list):
            start = node_list[int(starts[i])]
            if strategy == "flood":
                results.append(self.flood(start, doc_id, ttl))
            elif strategy == "iterative_deepening":
                results.append(self.iterative_deepening(start, doc_id))
            else:
                results.append(self.random_walk(start, doc_id, rng))
        loads = {
            node.node_id: node.requests_served for node in self.nodes.values()
        }
        return results, loads
