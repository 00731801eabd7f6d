"""Lying peers (scenario fault injection) and the audit that catches them.

:func:`arm` makes one peer of a :class:`~repro.overlay.system.P2PSystem`
lie and, the first time, attaches an :class:`IntegrityAudit` to the
world's ledger, so honest worlds carry neither.  A ``"bogus"`` peer takes
over its ``query`` kind (in a private copy of its world's dispatch
table, so no other peer lies) and answers every query that passes the
loop window with a fabricated doc id and no ``DocInfo``, which the
requester's length check rejects without settling the query; the
dispatch entry survives a power loss.  A ``"stale_gossip"`` peer replays
the DCRT digest frozen at arming in every gossip push (receivers ignore
it by move counter); the digest is volatile and a power loss ends the
replay.  The last arming of a peer wins: each mode ends the other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import obs
from repro.overlay import messages as m

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.ledger import WorldLedger
    from repro.overlay.query_protocol import QueryProtocol
    from repro.overlay.system import P2PSystem

__all__ = ["BOGUS_DOC_BASE", "MODES", "IntegrityAudit", "arm"]

MODES = ("bogus", "stale_gossip")
#: fabricated doc ids start here, far above any real document.
BOGUS_DOC_BASE = 10_000_000


class IntegrityAudit:
    """Accepted responses may only claim documents their responder has held
    since the audit began; ``violations`` lists those that did not."""

    def __init__(self, ledger: "WorldLedger") -> None:
        self._ledger = ledger
        self.violations: list[str] = []
        #: (node, doc) pairs dropped since the audit began.
        self._dropped: set[tuple[int, int]] = set()

    def ever_stored(self, node_id: int, doc_id: int) -> bool:
        return (
            node_id in self._ledger.holders(doc_id)
            or (node_id, doc_id) in self._dropped
        )

    def note_drop(self, node_id: int, doc_id: int) -> None:
        self._dropped.add((node_id, doc_id))

    def check(self, response: m.QueryResponse) -> None:
        for doc_id in response.doc_ids:
            if not self.ever_stored(response.responder_id, doc_id):
                self.violations.append(
                    f"node {response.responder_id} answered query "
                    f"{response.query_id} claiming doc {doc_id} it never stored"
                )


def arm(system: "P2PSystem", node_id: int, mode: str) -> None:
    """Make ``node_id`` lie in ``mode`` (one of :data:`MODES`).

    Only on a quiescent world: the audit's drop log starts here, which is
    sound only while no answer is in flight.
    """
    if mode not in MODES:
        raise ValueError(f"unknown misbehaviour mode {mode!r}")
    peer = system.peers.get(node_id)
    if peer is None:
        raise ValueError(f"unknown node id {node_id}")
    if system.sim.pending():
        raise RuntimeError("arm needs a quiescent world: events are pending")
    if system.ledger.audit is None:
        system.ledger.audit = IntegrityAudit(system.ledger)
    peer.membership.freeze_gossip_digest(mode == "stale_gossip")
    queries = peer.queries
    handler = _bogus_query if mode == "bogus" else type(queries).handle_query
    peer.register("query", m.QueryMessage, queries, handler, replace=True)


def _bogus_query(
    queries: "QueryProtocol", query: m.QueryMessage, src: int
) -> None:
    """A lying peer's ``query`` handler: a fabricated answer to each query."""
    if queries.accept(query):
        # Lazily registered: the counter stays out of honest worlds'
        # metric snapshots (and goldens).
        obs.counter("overlay.bogus_responses_sent").inc()
        peer = queries.peer
        fake = (BOGUS_DOC_BASE + query.query_id,)
        peer._send(
            query.requester_id,
            "query_response",
            m.QueryResponse(query.query_id, fake, peer.node_id, query.hops),
        )
