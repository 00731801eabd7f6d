"""Per-peer chunk server and multi-source fetch scheduler.

One :class:`PeerContent` hangs off every peer when the content data
plane is enabled.  It plays both sides of the chunk protocol:

* **Server**: answers ``chunk_request`` for documents the peer fully
  holds *or* holds partially from an in-flight fetch, with the chunk's
  content hash (deliberately wrong when the chaos harness marked the
  chunk corrupt).  With the service model enabled, chunk requests go
  through the same bounded intake queue as queries — a chunk costs
  service time proportional to its bytes, so bandwidth is a first-class
  load dimension.  An overloaded holder sheds a chunk request by
  answering ``found=False``; it never redirects one, since the fetcher
  owns source selection.

* **Client**: schedules one request per chunk across the live sources,
  rarest-first (chunks with the fewest live sources are requested
  first, ties broken by chunk index — fully deterministic, no RNG).
  Every received chunk is verified against the manifest hash; a
  mismatch, a ``found=False`` answer (the holder shed the request, or
  evicted or dropped the document mid-transfer), or a response deadline
  triggers failover to the next source.  A hash mismatch additionally
  schedules **read-repair**: once the correct chunk arrives from
  elsewhere, it is pushed back to the stale replica and the manifest
  version bumps.

Determinism contract: source selection sorts candidates and indexes
them by attempt count; deadlines are fixed sim-time offsets; request
ids count up per peer, and every answer names the request it answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.content.chunks import ContentConfig, chunk_hash, corrupted_hash
from repro.content.manifest import Manifest, build_manifest, manifest_from_update
from repro.overlay import messages as m

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.content.manifest import ContentManager
    from repro.overlay.peer import DocInfo, Peer

__all__ = ["PeerContent"]


@dataclass(slots=True)
class _ChunkState:
    index: int
    attempts: int = 0
    done: bool = False
    tried: set[int] = field(default_factory=set)


@dataclass(slots=True)
class _Fetch:
    fetch_id: int
    info: "DocInfo"
    manifest: Manifest
    index: "ContentManager | None"
    on_done: Callable | None
    sources_fn: Callable[[], dict[int, tuple[int, ...]]]
    chunks: dict[int, _ChunkState]
    remaining: int
    bytes_fetched: int = 0
    received: dict[int, int] = field(default_factory=dict)
    #: (stale holder, chunk index) pairs owed a read-repair push once
    #: the correct chunk is in hand.
    pending_repairs: set[tuple[int, int]] = field(default_factory=set)


class PeerContent:
    """Chunk-protocol endpoint attached to one peer (enabled runs only)."""

    def __init__(self, peer: "Peer", config: ContentConfig) -> None:
        self.peer = peer
        self.config = config
        #: doc id -> chunk indexes held from in-flight/abandoned fetches.
        self.partial: dict[int, set[int]] = {}
        #: doc id -> chunk indexes whose local copy is corrupt (chaos).
        self.corrupt: dict[int, set[int]] = {}
        #: locally cached manifests (fetches, repairs, replica pulls).
        self.manifests: dict[int, Manifest] = {}
        #: optional ``(doc_id, manifest)`` callback fired whenever the
        #: manifest cache learns or advances a version — the durability
        #: journal's hook for replaying missed manifest bumps.
        self.on_manifest: Callable | None = None
        self._fetches: dict[int, _Fetch] = {}
        #: request id -> (fetch id, chunk index) for in-flight requests.
        self._requests: dict[int, tuple[int, int]] = {}
        self._next_request = count(1)

    def registrations(self) -> dict:
        """The kinds this component owns: ``kind -> (payload class, handler)``."""
        return {
            "chunk_request": (m.ChunkRequest, self.handle_chunk_request),
            "chunk_data": (m.ChunkData, self.handle_chunk_data),
            "chunk_repair": (m.ChunkRepair, self.handle_chunk_repair),
            "manifest_update": (m.ManifestUpdate, self.handle_manifest_update),
        }

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    def holds_chunk(self, doc_id: int, index: int) -> bool:
        if doc_id in self.peer.docs:
            return True
        return index in self.partial.get(doc_id, ())

    def mark_corrupt(self, doc_id: int, index: int) -> bool:
        """Chaos injection: this replica's chunk now hashes wrong.

        Only effective when the peer actually holds the chunk; returns
        whether the mark stuck.
        """
        if not self.holds_chunk(doc_id, index):
            return False
        self.corrupt.setdefault(doc_id, set()).add(index)
        return True

    def handle_chunk_request(self, request: m.ChunkRequest, src: int) -> None:
        # Chunk serving is member-side work like query serving: with the
        # service model on it pays admission control and byte-proportional
        # service time before :meth:`serve` runs.
        self.peer.admit(request, self)

    def serve(self, request: m.ChunkRequest) -> None:
        """Service-queue callback: the request's turn has come.

        Looked up at call time, so a wrapper installed on ``serve_chunk``
        (the stack benchmark's tracer) sees every served chunk.
        """
        self.serve_chunk(request)

    def shed(self, request: m.ChunkRequest) -> None:
        """Service-queue callback: the holder is overloaded.  The
        requester's fetcher fails over on the refusal."""
        self._refuse(request)

    def redirect(self, request: m.ChunkRequest) -> bool:
        """Service-queue callback: never redirect — the fetcher owns
        source selection, so an overflow chunk request is shed."""
        return False

    def _refuse(self, request: m.ChunkRequest) -> None:
        self.peer._send(
            request.requester_id,
            "chunk_data",
            m.ChunkData(
                request_id=request.request_id,
                fetch_id=request.fetch_id,
                responder_id=self.peer.node_id,
                doc_id=request.doc_id,
                chunk_index=request.chunk_index,
                chunk_hash=0,
                size_bytes=0,
                found=False,
            ),
        )

    def serve_chunk(self, request: m.ChunkRequest) -> None:
        """Answer one chunk request (runs at service completion when the
        service model queues it, inline otherwise)."""
        doc_id, index = request.doc_id, request.chunk_index
        if not self.holds_chunk(doc_id, index):
            self._refuse(request)
            return
        value = chunk_hash(doc_id, index)
        if index in self.corrupt.get(doc_id, ()):
            value = corrupted_hash(value)
        size = max(request.chunk_bytes, m.CONTROL_SIZE)
        self.peer._send(
            request.requester_id,
            "chunk_data",
            m.ChunkData(
                request_id=request.request_id,
                fetch_id=request.fetch_id,
                responder_id=self.peer.node_id,
                doc_id=doc_id,
                chunk_index=index,
                chunk_hash=value,
                size_bytes=request.chunk_bytes,
                found=True,
            ),
            size=size,
        )

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def start_fetch(
        self,
        fetch_id: int,
        info: "DocInfo",
        manifest: Manifest,
        index: "ContentManager | None" = None,
        sources_fn: Callable[[], dict[int, tuple[int, ...]]] | None = None,
        on_done: Callable | None = None,
    ) -> None:
        """Begin fetching ``info.doc_id`` chunk by chunk, rarest first.

        ``index`` is the deployment's :class:`ContentManager` (source
        lookups, ledger callbacks); unit tests may instead pass a bare
        ``sources_fn`` returning ``{chunk index: (source ids, ...)}``.
        """
        doc_id = info.doc_id
        if sources_fn is None:
            if index is None:
                raise ValueError("start_fetch needs an index or a sources_fn")
            sources_fn = lambda: index.chunk_sources(doc_id)  # noqa: E731
        chunks = {
            i: _ChunkState(index=i) for i in range(manifest.n_chunks)
        }
        fetch = _Fetch(
            fetch_id=fetch_id,
            info=info,
            manifest=manifest,
            index=index,
            on_done=on_done,
            sources_fn=sources_fn,
            chunks=chunks,
            remaining=manifest.n_chunks,
        )
        self._fetches[fetch_id] = fetch
        self.manifests[doc_id] = manifest
        if self.on_manifest is not None:
            self.on_manifest(doc_id, manifest)
        already = self.partial.get(doc_id, set())
        for i in sorted(already & set(chunks)):
            # Chunks left behind by an abandoned fetch are already
            # verified local copies — no need to move them again.
            chunk = chunks[i]
            chunk.done = True
            fetch.received[i] = manifest.chunk_hashes[i]
            fetch.remaining -= 1
        if fetch.remaining == 0:
            self._complete(fetch)
            return
        # One lookup for the whole first wave: the requests below are only
        # scheduled, so nothing is delivered, stored or dropped between them.
        sources = sources_fn()
        for position, i in enumerate(self._rarest_first(fetch, sources)):
            chunk = chunks[i]
            if chunk.done:
                continue
            source = self._pick_source(fetch, chunk, sources, stagger=position)
            if source is None:
                self._fail(fetch, "no-live-source")
                return
            self._request_chunk(fetch, chunk, source)

    def _rarest_first(
        self, fetch: _Fetch, sources: dict[int, tuple[int, ...]]
    ) -> list[int]:
        """Chunk indexes ordered by (live source count, index)."""
        return sorted(
            fetch.chunks,
            key=lambda i: (len(sources.get(i, ())), i),
        )

    def _pick_source(
        self,
        fetch: _Fetch,
        chunk: _ChunkState,
        sources: dict[int, tuple[int, ...]],
        stagger: int = 0,
    ) -> int | None:
        """Deterministically choose the next source for one chunk.

        Candidates are the chunk's live sources in ``sources`` (a
        ``sources_fn()`` result) minus this peer,
        already-tried sources, and failure-detector suspects; like query
        failover, exclusions relax in that order rather than failing a
        fetch a plain retry could save.  ``stagger`` spreads the initial
        wave round-robin across sources so one holder does not absorb
        every first request.
        """
        sources = sources.get(chunk.index, ())
        suspects = self.peer.suspects()
        mine = self.peer.node_id
        candidates = [
            s
            for s in sources
            if s != mine and s not in chunk.tried and s not in suspects
        ]
        if not candidates and chunk.tried:
            candidates = [
                s for s in sources if s != mine and s not in suspects
            ]
        if not candidates and suspects:
            candidates = [s for s in sources if s != mine]
        if not candidates:
            return None
        return candidates[(stagger + chunk.attempts) % len(candidates)]

    def _request_chunk(
        self, fetch: _Fetch, chunk: _ChunkState, source: int
    ) -> None:
        request_id = next(self._next_request)
        self._requests[request_id] = (fetch.fetch_id, chunk.index)
        chunk.tried.add(source)
        chunk.attempts += 1
        self.peer._send(
            source,
            "chunk_request",
            m.ChunkRequest(
                request_id=request_id,
                fetch_id=fetch.fetch_id,
                requester_id=self.peer.node_id,
                doc_id=fetch.info.doc_id,
                chunk_index=chunk.index,
                chunk_bytes=fetch.manifest.chunk_bytes(chunk.index),
            ),
        )
        self.peer.transport.schedule(
            self.config.chunk_timeout,
            lambda: self._on_deadline(request_id, source),
        )

    def _on_deadline(self, request_id: int, source: int) -> None:
        entry = self._requests.pop(request_id, None)
        if entry is None:
            return  # answered, shed, or the fetch is gone
        fetch_id, index = entry
        fetch = self._fetches.get(fetch_id)
        if fetch is None:
            return
        # An unresponsive source is evidence of death — the same signal
        # a reliable-delivery give-up feeds the failure detector.
        self.peer.detector.note_missed(source)
        self._failover(fetch, fetch.chunks[index])

    def _failover(self, fetch: _Fetch, chunk: _ChunkState) -> None:
        if fetch.index is not None:
            fetch.index.on_chunk_failover(fetch.fetch_id)
        if chunk.attempts >= self.config.max_chunk_attempts:
            self._fail(fetch, "attempts-exhausted")
            return
        source = self._pick_source(fetch, chunk, fetch.sources_fn())
        if source is None:
            self._fail(fetch, "no-live-source")
            return
        self._request_chunk(fetch, chunk, source)

    def handle_chunk_data(self, data: m.ChunkData, src: int) -> None:
        entry = self._requests.pop(data.request_id, None)
        if entry is None:
            return  # late reply after the deadline already acted
        fetch_id, index = entry
        fetch = self._fetches.get(fetch_id)
        if fetch is None:
            return
        chunk = fetch.chunks[index]
        if chunk.done:
            return
        if not data.found:
            # The holder shed the request, or no longer has the chunk
            # (dropped or evicted mid-transfer): fail over, never fail the
            # fetch outright.
            self._failover(fetch, chunk)
            return
        expected = fetch.manifest.chunk_hashes[index]
        if data.chunk_hash != expected:
            # Integrity failure: remember the stale replica for
            # read-repair, then fetch the chunk from someone else.
            fetch.pending_repairs.add((data.responder_id, index))
            self._failover(fetch, chunk)
            return
        chunk.done = True
        fetch.remaining -= 1
        fetch.received[index] = data.chunk_hash
        fetch.bytes_fetched += data.size_bytes
        doc_id = fetch.info.doc_id
        self.partial.setdefault(doc_id, set()).add(index)
        if fetch.index is not None:
            fetch.index.note_partial(self.peer.node_id, doc_id, index)
        if fetch.pending_repairs:
            for target, repair_index in sorted(fetch.pending_repairs):
                if repair_index == index:
                    self._push_repair(fetch, target, index, expected)
            fetch.pending_repairs = {
                pair for pair in fetch.pending_repairs if pair[1] != index
            }
        if fetch.remaining == 0:
            self._complete(fetch)

    def _push_repair(
        self, fetch: _Fetch, target: int, index: int, value: int
    ) -> None:
        """Read-repair: push the verified chunk back to a stale replica."""
        doc_id = fetch.info.doc_id
        version = fetch.manifest.version
        if fetch.index is not None:
            version = fetch.index.on_read_repair(fetch.fetch_id, doc_id)
        self.peer._send(
            target,
            "chunk_repair",
            m.ChunkRepair(
                doc_id=doc_id,
                chunk_index=index,
                chunk_hash=value,
                repairer_id=self.peer.node_id,
                version=version,
            ),
            size=max(fetch.manifest.chunk_bytes(index), m.CONTROL_SIZE),
        )

    def handle_chunk_repair(self, repair: m.ChunkRepair, src: int) -> None:
        """A fetcher pushed a correct chunk over our stale/corrupt copy."""
        marks = self.corrupt.get(repair.doc_id)
        if marks is not None:
            marks.discard(repair.chunk_index)
            if not marks:
                self.corrupt.pop(repair.doc_id, None)
        cached = self.manifests.get(repair.doc_id)
        if cached is not None and repair.version > cached.version:
            fresh = cached.with_version(repair.version)
            self.manifests[repair.doc_id] = fresh
            if self.on_manifest is not None:
                self.on_manifest(repair.doc_id, fresh)

    def handle_manifest_update(self, update: m.ManifestUpdate, src: int) -> None:
        """Cache a manifest announced to us (beside a replica pull).

        The update arrives from outside the program: one whose hash count
        disagrees with its size is dropped and counted before it can
        replace a cached manifest or reach the journal.
        """
        try:
            fresh = manifest_from_update(update)
        except ValueError:
            # Lazily registered, as in ``Peer.handle_message``: honest
            # worlds never reach this, so their snapshots gain no line.
            obs.counter("overlay.rejected_messages").inc()
            return
        cached = self.manifests.get(update.doc_id)
        if cached is None or fresh.version >= cached.version:
            self.manifests[update.doc_id] = fresh
            if self.on_manifest is not None:
                self.on_manifest(update.doc_id, fresh)

    def _complete(self, fetch: _Fetch) -> None:
        doc_id = fetch.info.doc_id
        self._fetches.pop(fetch.fetch_id, None)
        expected = fetch.manifest.chunk_hashes
        hashes = tuple(
            fetch.received.get(i, expected[i]) for i in range(len(expected))
        )
        if doc_id not in self.peer.docs:
            self.peer.store_document(fetch.info)
        self.partial.pop(doc_id, None)
        if fetch.index is not None:
            fetch.index.drop_partial(self.peer.node_id, doc_id)
            fetch.index.on_fetch_complete(
                fetch.fetch_id, hashes, fetch.bytes_fetched
            )
        if fetch.on_done is not None:
            fetch.on_done(fetch.fetch_id, True, "")

    def _fail(self, fetch: _Fetch, reason: str) -> None:
        self._fetches.pop(fetch.fetch_id, None)
        for request_id, (fetch_id, _) in list(self._requests.items()):
            if fetch_id == fetch.fetch_id:
                self._requests.pop(request_id, None)
        # Partial chunks stay: they are verified local copies other
        # fetchers can use as sources, and a retry resumes from them.
        if fetch.index is not None:
            fetch.index.on_fetch_failed(fetch.fetch_id, reason)
        if fetch.on_done is not None:
            fetch.on_done(fetch.fetch_id, False, reason)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """The host crashed: every in-flight fetch it started dies.

        Partial chunks persist (this model's crashes keep disks), so a
        post-recovery fetch resumes from them.
        """
        for fetch in list(self._fetches.values()):
            self._fail(fetch, "requester-crashed")

    def lose_power(self) -> None:
        """Amnesia crash: wipe volatile state, keep what lives on disk.

        Cached manifests and request bookkeeping are memory and vanish;
        ``partial`` (verified chunks on disk) and ``corrupt`` (the bits
        are still bad after a reboot) survive.  Runs after
        :meth:`on_crash` has already failed the in-flight fetches.
        """
        self.manifests.clear()
        self._fetches.clear()
        self._requests.clear()

    def attach_journal(self, record: Callable) -> None:
        """Durability armed: journal every manifest the cache learns."""
        self.on_manifest = lambda doc_id, manifest: record(
            "manifest",
            doc_id,
            manifest.size_bytes,
            manifest.chunk_size,
            manifest.version,
        )

    def restore_durable_state(self, state: dict) -> None:
        """Rebuild the manifest cache from a replayed snapshot+WAL state."""
        for doc_id, size_bytes, chunk_size, version in state["manifests"]:
            self.manifests[doc_id] = build_manifest(
                doc_id, size_bytes, chunk_size, version=version
            )

    def in_flight(self) -> int:
        return len(self._fetches)
