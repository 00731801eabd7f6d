"""Query processing (Section 3.3), overload signals and the requester cache.

The :class:`QueryProtocol` component of a :class:`~repro.overlay.peer.Peer`:

* step 1 at the requester (``start_query``: DCRT -> cluster, NRT ->
  random member; with reliability on, an end-to-end deadline fails the
  query over to a different member);
* step 2 at a target (loop-break on the query id and attempt, redirect
  queries for moved categories per the lazy-rebalancing protocol, serve
  locally, locate a replica holder through cluster metadata, or fan out
  over the cluster graph);
* the query side of the service model (``serve`` / ``shed`` /
  ``redirect``, which the service queue calls back, and BUSY back-off at
  the requester);
* the requester-side document cache filled from query responses.

All of its state is volatile: a power loss rebuilds the component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import obs
from repro.overlay import messages as m
from repro.overlay.cache import DocumentCache
from repro.overlay.messages import DocInfo
from repro.overlay.metadata import DCRTEntry
from repro.overlay.service import BUSY_RETRY_AFTER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.peer import Peer

__all__ = ["QueryProtocol"]

# Shared across all peers (process-wide totals); cached at import time so
# the hot paths pay one attribute call, not a registry lookup.
_TRACE = obs.TRACE
_C_QUERIES_ISSUED = obs.counter("overlay.queries_issued")
_C_QUERIES_SERVED = obs.counter("overlay.queries_served")
_C_QUERIES_FORWARDED = obs.counter("overlay.queries_forwarded")
_C_QUERIES_FAILED = obs.counter("overlay.queries_failed")
_C_QUERY_FAILOVERS = obs.counter("reliability.query_failovers")
#: total loop-detection entries across all peers (leak watchdog).
_G_SEEN_QUERIES = obs.gauge("overlay.seen_query_entries")
#: most-recent query ids each peer remembers for loop detection.
SEEN_QUERY_CAPACITY = 4096
#: seconds of transport time a loop-detection generation covers: an id
#: is remembered for at least one and at most two of them after it was
#: last seen.  Every copy of one attempt arrives well within it (the
#: longest requester horizon configured anywhere is 16 x 3.0 s).
SEEN_QUERY_TTL = 60.0


@dataclass(slots=True)
class _QueryAttempt:
    """Failover state of a query this peer originated (reliability on).

    ``tried`` accumulates dispatch targets so each deadline expiry
    retries against a *different* NRT member of the target cluster;
    ``attempts`` numbers the dispatches, and each carries its number.
    """

    query_id: int
    category_id: int
    m_results: int
    target_doc_id: int
    tried: set[int] = field(default_factory=set)
    attempts: int = 0
    settled: bool = False


class QueryProtocol:
    """Queries, overload signals and the requester cache of one peer."""

    def __init__(self, peer: "Peer") -> None:
        self.peer = peer
        self._reliability = peer.config.reliability
        #: recently seen query id -> highest attempt seen (loop
        #: detection), in two generations: ids seen since
        #: ``_seen_since``, and the generation before.  Both are in
        #: least-recently-seen order, and SEEN_QUERY_CAPACITY bounds them
        #: together.
        self._seen: dict[int, int] = {}
        self._seen_before: dict[int, int] = {}
        self._seen_since = float("-inf")
        #: query id -> failover state for queries this peer originated.
        self._attempts: dict[int, _QueryAttempt] = {}
        #: requester-side cache of retrieved (servable) documents; see
        #: PeerConfig.cache_capacity.
        self.cache = DocumentCache(peer.config.cache_capacity)

    def registrations(self) -> dict:
        """The kinds this component owns: ``kind -> (payload class, handler)``."""
        return {
            "query": (m.QueryMessage, self.handle_query),
            "query_response": (m.QueryResponse, self.handle_query_response),
            "busy": (m.Busy, self.handle_busy),
        }

    def seen_query_count(self) -> int:
        """Current size of the bounded loop-detection window."""
        return len(self._seen) + len(self._seen_before)

    def lose_power(self) -> None:
        """The window goes with the memory: off the leak gauge with it."""
        _G_SEEN_QUERIES.value -= self.seen_query_count()
        self._seen.clear()
        self._seen_before.clear()

    def in_flight(self) -> int:
        """Queries this peer originated that still await an answer."""
        return len(self._attempts)

    # ------------------------------------------------------------------
    # queries (Section 3.3)
    # ------------------------------------------------------------------
    def start_query(
        self,
        query_id: int,
        category_id: int,
        m_results: int,
        target_doc_id: int = -1,
    ) -> None:
        """Step 1 of query processing, at the requesting node.

        Maps the (pre-categorized) query to its cluster via the DCRT, picks
        a random cluster node via the NRT, and dispatches.  Fails when no
        member of the cluster is known — "if no live node exists, the query
        will fail".  With ``target_doc_id`` set, the query asks for a
        specific document (the retrieval case); otherwise it asks for up to
        ``m_results`` documents of the category.
        """
        if m_results < 1:
            raise ValueError(f"m_results must be >= 1, got {m_results}")
        _C_QUERIES_ISSUED.value += 1
        if _TRACE.enabled:
            _TRACE.emit(
                "query_issue",
                t=self.peer.transport.now,
                node=self.peer.node_id,
                query=query_id,
                category=category_id,
            )
        state = _QueryAttempt(
            query_id=query_id,
            category_id=category_id,
            m_results=m_results,
            target_doc_id=target_doc_id,
        )
        if self._reliability.enabled:
            self._attempts[query_id] = state
        self._try_query(state)

    def _fail_query(self, query_id: int, reason: str) -> None:
        _C_QUERIES_FAILED.value += 1
        if _TRACE.enabled:
            _TRACE.emit(
                "query_fail",
                t=self.peer.transport.now,
                node=self.peer.node_id,
                query=query_id,
                reason=reason,
            )
        self.peer.hooks.on_query_failed(self.peer, query_id, reason)

    def _try_query(self, state: _QueryAttempt) -> None:
        """One dispatch attempt; with reliability on, under a deadline.

        The target cluster is re-read from the DCRT each attempt (the
        category may have moved between attempts).  Targets exclude both
        already-tried nodes and the failure detector's suspects; if that
        empties the candidate set, the exclusions are relaxed in order —
        wrong suspicion must not fail a query a plain retry could save.
        With reliability off there are no suspects, nothing was tried and
        no deadline is armed: the one attempt is fire-and-forget.
        """
        cluster_id = self.peer.dcrt.cluster_of(state.category_id)
        suspects = self.peer.suspects()
        avoid = state.tried | suspects if suspects else state.tried
        pick = self.peer.nrt.random_node
        target = pick(cluster_id, self.peer.rng, exclude=avoid)
        if target is None and state.tried:
            target = pick(cluster_id, self.peer.rng, exclude=suspects)
        if target is None and suspects:
            target = pick(cluster_id, self.peer.rng)
        if target is None:
            self._attempts.pop(state.query_id, None)
            self._fail_query(state.query_id, "no-known-member")
            return
        state.tried.add(target)
        state.attempts += 1
        armed_attempts = state.attempts
        self.peer._send(
            target,
            "query",
            m.QueryMessage(
                query_id=state.query_id,
                requester_id=self.peer.node_id,
                category_id=state.category_id,
                remaining=state.m_results,
                hops=1,
                target_cluster=cluster_id,
                target_doc_id=state.target_doc_id,
                attempt=armed_attempts,
            ),
        )
        if not self._reliability.enabled:
            return

        def on_deadline() -> None:
            current = self._attempts.get(state.query_id)
            if current is not state or state.settled:
                return  # answered, failed, or superseded
            if state.attempts != armed_attempts:
                return  # a BUSY-triggered failover already re-dispatched
            if state.attempts >= self._reliability.query_attempts:
                self._attempts.pop(state.query_id, None)
                self._fail_query(state.query_id, "deadline-exhausted")
                return
            _C_QUERY_FAILOVERS.value += 1
            if _TRACE.enabled:
                _TRACE.emit(
                    "query_failover",
                    t=self.peer.transport.now,
                    node=self.peer.node_id,
                    query=state.query_id,
                    attempt=state.attempts,
                )
            self._try_query(state)

        self.peer.transport.schedule(self._reliability.query_deadline, on_deadline)

    def handle_query(self, query: m.QueryMessage, src: int) -> None:
        """Step 2, at a target node: serve, redirect, or forward."""
        if not self.accept(query):
            return
        entry = self.peer.dcrt.entry(query.category_id)
        serving_cluster = entry.cluster_id
        if serving_cluster not in self.peer.memberships:
            # This node no longer serves the category (it moved, or the
            # requester's NRT was stale): forward toward the cluster the
            # local DCRT names (lazy-rebalancing step 3).  The requester's
            # original believed cluster stays in the message so the serving
            # node can piggyback the metadata correction (step 4).
            target = self.peer.nrt.random_node(
                serving_cluster, self.peer.rng, exclude=self.peer.suspects()
            )
            if target is not None:
                _C_QUERIES_FORWARDED.value += 1
                self.peer._send(target, "query", query.forwarded())
            return

        # Member-side work (serving, replica lookups, graph fan-out)
        # costs service time and intake-queue admission when the service
        # model is on; the routing above stays instant — forwarding is
        # cheap, serving is not.
        self.peer.admit(query, self)

    def accept(self, query: m.QueryMessage) -> bool:
        """The loop window of step 2: whether this peer takes ``query`` on.

        A query that wants no result is dropped and counted first: the
        requester asks for at least one and a server forwards only what
        is still wanted, so only a frame from outside carries one.
        """
        if query.remaining < 1:
            # Lazily registered, as in ``Peer.handle_message``: honest
            # worlds never reach this, so their snapshots gain no line.
            obs.counter("overlay.rejected_messages").inc()
            return False
        now = self.peer.transport.now
        if now - self._seen_since > SEEN_QUERY_TTL:
            self._rotate_seen(now)
        query_id = query.query_id
        seen_queries = self._seen
        seen = seen_queries.pop(query_id, None)
        if seen is None:
            seen = self._seen_before.pop(query_id, None)
        if seen is None:
            # Levels off: the two generations hold only ids seen within
            # 2 x SEEN_QUERY_TTL of transport time, and at most
            # SEEN_QUERY_CAPACITY of them.
            seen_queries[query_id] = query.attempt
            _G_SEEN_QUERIES.value += 1
            if len(seen_queries) + len(self._seen_before) > SEEN_QUERY_CAPACITY:
                oldest = self._seen_before or seen_queries
                del oldest[next(iter(oldest))]
                _G_SEEN_QUERIES.value -= 1
        elif seen >= query.attempt:
            seen_queries[query_id] = seen
            return False  # loop broken via idQ (Section 3.3, step 2b)
        else:
            seen_queries[query_id] = query.attempt
        return True

    def _rotate_seen(self, now: float) -> None:
        """Start a new loop-detection generation at ``now``.

        The current generation becomes the previous one and the previous
        one is forgotten; a current generation older than two TTLs holds
        nothing seen within one, so it is forgotten too.
        """
        forgotten = len(self._seen_before)
        if now - self._seen_since > 2 * SEEN_QUERY_TTL:
            forgotten += len(self._seen)
            self._seen_before = {}
        else:
            self._seen_before = self._seen
        _G_SEEN_QUERIES.value -= forgotten
        self._seen = {}
        self._seen_since = now

    def serve(self, query: m.QueryMessage) -> None:
        """Member-side query work: serve, redirect over metadata, or fan out.

        With the service model enabled this runs at service *completion*
        (after queueing delay plus ``1/capacity_units`` service time);
        otherwise it runs inline, exactly as it historically did.
        """
        entry = self.peer.dcrt.entry(query.category_id)
        park = self.peer.adaptation.park

        if query.target_doc_id >= 0:
            # Document retrieval: serve locally, wait for an in-flight
            # transfer, or locate a replica holder via cluster metadata.
            if self.peer.dt.has_document(query.target_doc_id):
                self._serve_docs(query, (query.target_doc_id,), entry)
            elif not park(query) and not self._forward_to_holder(
                query, entry.cluster_id
            ):
                # Super-peer mode: this node holds no cluster metadata;
                # route the query to the cluster's super peer, which
                # does (one extra hop — the hybrid trade-off).
                super_peer = self.peer.super_peers.get(entry.cluster_id)
                if super_peer is not None and super_peer != self.peer.node_id:
                    self.peer.queries_routed += 1
                    self.peer._send(super_peer, "query", query.forwarded())
            return

        matched = self.peer.dt.docs_in_category(
            query.category_id, query.remaining
        )
        if not matched and park(query):
            # Destination of an in-flight move without the content yet:
            # pulled from the coupled source node, then answered (lazy
            # step 4).
            return

        self._serve_and_forward(query, matched, entry)

    def replay(self, query: m.QueryMessage, entry: DCRTEntry) -> None:
        """Answer a query that was parked on a transfer which has landed."""
        if query.target_doc_id < 0:
            matched = self.peer.dt.docs_in_category(
                query.category_id, query.remaining
            )
            self._serve_and_forward(query, matched, entry)
        elif self.peer.dt.has_document(query.target_doc_id):
            self._serve_docs(query, (query.target_doc_id,), entry)
        else:
            # Not in this piece: locate a holder through the cluster
            # metadata instead of stalling forever.
            self._forward_to_holder(query, entry.cluster_id, relayed=True)

    def _forward_to_holder(
        self, query: m.QueryMessage, cluster_id: int, *, relayed: bool = False
    ) -> bool:
        """Hand a document query to a random other holder, if one is known.

        Holders come from the cluster metadata (``lookup_holders``).
        ``relayed`` is the post-transfer replay, which passes the parked
        query on unchanged: no hop bump, not counted in
        ``queries_routed`` (kept as it was; see the ROADMAP note).
        """
        holders = [
            holder
            for holder in self.peer.hooks.lookup_holders(
                self.peer, cluster_id, query.target_doc_id
            )
            if holder != self.peer.node_id
        ]
        if not holders:
            return False
        choice = holders[int(self.peer.rng.integers(0, len(holders)))]
        if not relayed:
            self.peer.queries_routed += 1
            query = query.forwarded()
        self.peer._send(choice, "query", query)
        return True

    def _serve_docs(
        self,
        query: m.QueryMessage,
        doc_ids: tuple[int, ...],
        entry: DCRTEntry,
    ) -> None:
        """Answer the requester with ``doc_ids`` and account the load.

        The response carries the documents themselves (sized as their
        content), so the requester can cache them.
        """
        self.peer.requests_served += 1
        self.peer.hit_counters[query.category_id] = (
            self.peer.hit_counters.get(query.category_id, 0) + 1
        )
        if len(self.cache):
            for doc_id in doc_ids:
                if self.cache.owns(doc_id):
                    self.cache.served_hits += 1
        _C_QUERIES_SERVED.value += 1
        if _TRACE.enabled:
            _TRACE.emit(
                "query_serve",
                t=self.peer.transport.now,
                node=self.peer.node_id,
                query=query.query_id,
                hops=query.hops,
                docs=len(doc_ids),
            )
        updates: tuple[tuple[int, DCRTEntry], ...] = ()
        if query.target_cluster != entry.cluster_id:
            # The requester routed on a stale mapping; piggyback the
            # correction (lazy-rebalancing step 4).
            updates = ((query.category_id, entry),)
        infos = tuple(
            self.peer.docs[doc_id] for doc_id in doc_ids if doc_id in self.peer.docs
        )
        payload_bytes = sum(info.size_bytes for info in infos)
        self.peer._send(
            query.requester_id,
            "query_response",
            m.QueryResponse(
                query_id=query.query_id,
                doc_ids=doc_ids,
                responder_id=self.peer.node_id,
                hops=query.hops,
                dcrt_updates=updates,
                doc_infos=infos,
            ),
            size=max(payload_bytes, m.CONTROL_SIZE),
        )

    def _serve_and_forward(
        self,
        query: m.QueryMessage,
        matched: list[int],
        entry: DCRTEntry,
    ) -> None:
        served = tuple(matched)
        if served:
            self._serve_docs(query, served, entry)
        remaining = query.remaining - len(served)
        if remaining > 0:
            neighbors = self.peer.cluster_neighbors.get(entry.cluster_id, ())
            if neighbors:
                _C_QUERIES_FORWARDED.value += len(neighbors)
            forwarded = query.forwarded(remaining)
            for neighbor in neighbors:
                self.peer._send(neighbor, "query", forwarded)

    def handle_query_response(self, response: m.QueryResponse, src: int) -> None:
        if len(response.doc_infos) != len(response.doc_ids):
            # Integrity check: an honest server builds ``doc_infos`` from
            # the documents it actually holds, so metadata always covers
            # every claimed doc id.  A mismatch means fabricated content —
            # reject *without settling*, so an armed failover deadline
            # keeps retrying other members.  (Counter registered lazily:
            # honest runs never take this branch, keeping goldens intact.)
            obs.counter("overlay.bogus_responses_rejected").inc()
            return
        state = self._attempts.pop(response.query_id, None)
        if state is not None:
            state.settled = True  # disarms any in-flight failover deadline
        for category_id, entry in response.dcrt_updates:
            self.peer.dcrt.merge(category_id, entry)
        if self.peer.config.cache_capacity > 0:
            for info in response.doc_infos:
                self.cache_store(info)
        self.peer.hooks.on_query_response(self.peer, response)

    # ------------------------------------------------------------------
    # overload signals (service model; see repro.overlay.service)
    # ------------------------------------------------------------------
    def redirect(self, query: m.QueryMessage) -> bool:
        """Hand an overflow query to another holder or cluster member.

        The load-based-redirection admission policy: prefer a replica
        holder of the wanted document (cluster metadata), fall back to a
        random fellow member (NRT).  Returns False when nobody else is
        known — the caller sheds instead.
        """
        entry = self.peer.dcrt.entry(query.category_id)
        if query.target_doc_id >= 0 and self._forward_to_holder(
            query, entry.cluster_id
        ):
            return True
        target = self.peer.nrt.random_node(
            entry.cluster_id,
            self.peer.rng,
            exclude=self.peer.suspects() | {self.peer.node_id},
        )
        if target is not None:
            self.peer.queries_routed += 1
            self.peer._send(target, "query", query.forwarded())
            return True
        return False

    def shed(self, query: m.QueryMessage) -> None:
        """Shed a query: tell the requester to back off and go elsewhere."""
        self.peer._send(
            query.requester_id,
            "busy",
            m.Busy(
                query_id=query.query_id,
                responder_id=self.peer.node_id,
                retry_after=BUSY_RETRY_AFTER,
            ),
        )

    def handle_busy(self, busy: m.Busy, src: int) -> None:
        """An overloaded member shed our query: back off, then fail over."""
        state = self._attempts.get(busy.query_id)
        if state is None:
            # No failover state (reliability off): the shed is terminal.
            if not self._reliability.enabled:
                self._fail_query(busy.query_id, "overloaded")
            return
        if state.settled:
            return  # another member already answered
        if state.attempts >= self._reliability.query_attempts:
            self._attempts.pop(state.query_id, None)
            self._fail_query(state.query_id, "overloaded")
            return
        armed_attempts = state.attempts

        def retry() -> None:
            current = self._attempts.get(state.query_id)
            if (
                current is not state
                or state.settled
                or state.attempts != armed_attempts
            ):
                return  # answered, failed, or another busy/deadline acted
            _C_QUERY_FAILOVERS.value += 1
            if _TRACE.enabled:
                _TRACE.emit(
                    "query_busy_failover",
                    t=self.peer.transport.now,
                    node=self.peer.node_id,
                    query=state.query_id,
                    shed_by=busy.responder_id,
                )
            self._try_query(state)

        self.peer.transport.schedule(max(busy.retry_after, 0.0), retry)

    def cache_store(self, info: DocInfo) -> None:
        """Keep a retrieved document as a servable cached replica.

        Cached copies register in the cluster metadata like any stored
        document, so they absorb future requests for hot content
        (future-work item viii).  Only cache-owned entries are evicted —
        contributions and placed replicas are never touched.
        """
        if self.cache.touch(info.doc_id):
            return
        if info.doc_id in self.peer.docs:
            return  # already stored as contribution/replica
        self.peer.store_document(info)
        for evicted in self.cache.add(info.doc_id):
            self.peer.drop_document(evicted)
