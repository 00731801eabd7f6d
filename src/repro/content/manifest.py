"""Per-document manifests and the deployment-level content manager.

The manifest is the content data plane's unit of metadata: the chunk
list (as content hashes), the document size, and a version that
read-repair bumps whenever a fetch pushed correct chunks back to a
stale or corrupt replica.  Manifests are registered alongside the
cluster metadata the deployment already keeps (the holder index behind
``PeerHooks.lookup_holders``), so the fetch scheduler resolves sources
from the same ground truth replica lookups use.

:class:`ContentManager` is constructed by :class:`~repro.overlay.system.
P2PSystem` only when ``ContentConfig.enabled`` — like the service and
replication subsystems, a disabled data plane builds nothing, registers
no metrics, and draws no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING

from repro import obs
from repro.content.chunks import (
    ContentConfig,
    chunk_bytes,
    chunk_hash,
    n_chunks,
)
from repro.content.healer import ContentHealer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay import messages as m
    from repro.overlay.peer import DocInfo, Peer
    from repro.overlay.system import P2PSystem

__all__ = [
    "ContentManager",
    "FetchRecord",
    "Manifest",
    "build_manifest",
    "manifest_from_update",
    "manifest_to_update",
]


class Manifest:
    """Immutable snapshot of a document's chunk metadata.

    The hashes are content-derived, so a manifest built from a document's
    identity alone (``chunk_hashes`` left out) derives them the first time
    they are read and keeps them; one given hashes — decoded from the wire
    — carries exactly those, and their count must be the one its size
    implies.  Equality and hashing cover all five values either way.
    """

    __slots__ = ("doc_id", "size_bytes", "chunk_size", "version", "_hashes")

    def __init__(
        self,
        doc_id: int,
        size_bytes: int,
        chunk_size: int,
        version: int,
        chunk_hashes: tuple[int, ...] | None = None,
    ) -> None:
        if chunk_hashes is not None:
            chunk_hashes = tuple(chunk_hashes)
            if chunk_size <= 0:
                raise ValueError(f"chunk_size must be > 0, got {chunk_size}")
            expected = n_chunks(size_bytes, chunk_size)
            if len(chunk_hashes) != expected:
                raise ValueError(
                    f"doc {doc_id} manifest lists {len(chunk_hashes)} "
                    f"chunk hashes but its size implies {expected}"
                )
        put = object.__setattr__
        put(self, "doc_id", doc_id)
        put(self, "size_bytes", size_bytes)
        put(self, "chunk_size", chunk_size)
        put(self, "version", version)
        put(self, "_hashes", chunk_hashes)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def chunk_hashes(self) -> tuple[int, ...]:
        hashes = self._hashes
        if hashes is None:
            doc_id = self.doc_id
            hashes = tuple(chunk_hash(doc_id, i) for i in range(self.n_chunks))
            object.__setattr__(self, "_hashes", hashes)
        return hashes

    @property
    def n_chunks(self) -> int:
        return n_chunks(self.size_bytes, self.chunk_size)

    def chunk_bytes(self, index: int) -> int:
        return chunk_bytes(self.size_bytes, index, self.chunk_size)

    def with_version(self, version: int) -> "Manifest":
        """This manifest at ``version``; hashes already derived go along,
        hashes not yet read stay unread."""
        return Manifest(
            self.doc_id, self.size_bytes, self.chunk_size, version, self._hashes
        )

    def _identity(self) -> tuple[int, int, int, int]:
        return (self.doc_id, self.size_bytes, self.chunk_size, self.version)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Manifest:
            return NotImplemented
        # Two manifests of one identity still waiting to derive would
        # derive the same, so ``None is None`` settles it unread.
        return self._identity() == other._identity() and (
            self._hashes is other._hashes
            or self.chunk_hashes == other.chunk_hashes
        )

    def __hash__(self) -> int:
        return hash((*self._identity(), self.chunk_hashes))

    def __repr__(self) -> str:
        hashes = "" if self._hashes is None else f", chunk_hashes={self._hashes}"
        return (
            f"Manifest(doc_id={self.doc_id}, size_bytes={self.size_bytes}, "
            f"chunk_size={self.chunk_size}, version={self.version}{hashes})"
        )


def build_manifest(
    doc_id: int,
    size_bytes: int,
    chunk_size: int,
    version: int = 0,
) -> Manifest:
    """The manifest of a document, from its identity and size alone: the
    chunk hashes are derived when first read."""
    return Manifest(doc_id, size_bytes, chunk_size, version)


def manifest_to_update(manifest: Manifest, holders=()) -> "m.ManifestUpdate":
    """Encode a manifest (plus a holder hint) as a wire message."""
    from repro.overlay import messages as m

    return m.ManifestUpdate(
        doc_id=manifest.doc_id,
        size_bytes=manifest.size_bytes,
        chunk_size=manifest.chunk_size,
        version=manifest.version,
        chunk_hashes=manifest.chunk_hashes,
        holders=tuple(sorted(holders)),
    )


def manifest_from_update(update: "m.ManifestUpdate") -> Manifest:
    """Decode a :class:`~repro.overlay.messages.ManifestUpdate`; raises
    ``ValueError`` when its hash count disagrees with its size."""
    return Manifest(
        doc_id=update.doc_id,
        size_bytes=update.size_bytes,
        chunk_size=update.chunk_size,
        version=update.version,
        chunk_hashes=update.chunk_hashes,
    )


@dataclass(slots=True)
class FetchRecord:
    """Ledger entry for one multi-source fetch (user, heal, or replicate)."""

    fetch_id: int
    doc_id: int
    requester_id: int
    n_chunks: int
    purpose: str
    started_at: float
    manifest_version: int
    completed_at: float | None = None
    verified: bool = False
    failed: bool = False
    failure: str = ""
    failovers: int = 0
    repairs: int = 0
    bytes_fetched: int = 0
    #: per-chunk hashes as received and verified, set on completion.
    chunk_hashes: tuple[int, ...] = ()

    @property
    def settled(self) -> bool:
        return self.completed_at is not None or self.failed


class ContentManager:
    """Deployment-wide manifest registry, fetch ledger, and healer.

    Holder ground truth is the deployment's existing replica index
    (the world ledger's holder directory, maintained by the store/drop
    hooks); the manager adds the chunk-level view on top: manifests,
    partial holders (peers mid-fetch that can already serve some
    chunks), and the append-only fetch ledger the integrity invariant
    audits.  As a ``P2PSystem`` subsystem it listens to
    ``document_stored`` and ``peer_recovered`` and runs the ``healing``
    control round.
    """

    round_name = "healing"

    def __init__(self, system: "P2PSystem", config: ContentConfig) -> None:
        self.system = system
        self.config = config
        #: doc id -> current manifest (version bumps replace the entry).
        self.manifests: dict[int, Manifest] = {}
        #: doc id -> DocInfo used to re-materialize the document at a
        #: fetch's destination (categories + authoritative size).
        self._infos: dict[int, "DocInfo"] = {}
        #: doc id -> node id -> chunk indexes held partially (in-flight
        #: or abandoned fetches); full holders are *not* listed here.
        self.partials: dict[int, dict[int, set[int]]] = {}
        #: append-only fetch ledger (the integrity invariant keeps a
        #: cursor into this list, so entries are never removed).
        self.records: list[FetchRecord] = []
        self._records_by_id: dict[int, FetchRecord] = {}
        self._next_fetch_id = count(1)
        self.healer = ContentHealer(self)
        # process-wide totals; registered here, lazily, so content-off
        # runs keep their metric snapshots byte-identical.
        self._c_fetches = obs.counter("content.fetches")
        self._c_completed = obs.counter("content.fetches_completed")
        self._c_failed = obs.counter("content.fetches_failed")
        self._c_failovers = obs.counter("content.chunk_failovers")
        self._c_repairs = obs.counter("content.read_repairs")
        self._c_heal = obs.counter("content.heal_fetches")
        self._c_bytes = obs.counter("content.bytes_fetched")
        for doc in system.instance.documents.values():
            self._register(doc.doc_id, doc.size_bytes)

    # ------------------------------------------------------------------
    # manifests
    # ------------------------------------------------------------------
    def _register(self, doc_id: int, size_bytes: int) -> Manifest:
        manifest = build_manifest(doc_id, size_bytes, self.config.chunk_size)
        self.manifests[doc_id] = manifest
        return manifest

    def document_stored(self, peer: "Peer", doc_id: int) -> None:
        """A peer stored ``doc_id`` (publish, transfer, fetch).

        First sight of a chaos-published document registers its manifest;
        a node holding the full document no longer counts as partial.
        """
        info = peer.docs.get(doc_id)
        if doc_id not in self.manifests and info is not None:
            self._register(doc_id, info.size_bytes)
        if doc_id not in self._infos and info is not None:
            self._infos[doc_id] = info
        self.drop_partial(peer.node_id, doc_id)

    def doc_info(self, doc_id: int) -> "DocInfo | None":
        """The DocInfo a fetch destination should store on completion."""
        info = self._infos.get(doc_id)
        if info is not None:
            return info
        from repro.overlay.peer import DocInfo

        try:
            doc = self.system.instance.documents[doc_id]
        except (IndexError, KeyError):
            return None
        if doc.doc_id != doc_id:
            return None
        info = DocInfo(
            doc_id=doc_id,
            categories=tuple(doc.categories),
            size_bytes=doc.size_bytes,
        )
        self._infos[doc_id] = info
        return info

    def bump_version(self, doc_id: int) -> int:
        """Read-repair pushed correct chunks back: advance the version."""
        manifest = self.manifests.get(doc_id)
        if manifest is None:
            return 0
        manifest = manifest.with_version(manifest.version + 1)
        self.manifests[doc_id] = manifest
        self._c_repairs.inc()
        return manifest.version

    # ------------------------------------------------------------------
    # holders
    # ------------------------------------------------------------------
    def live_holders(self, doc_id: int) -> list[int]:
        """Sorted live nodes holding the *full* document."""
        return self.system.ledger.live_holders(doc_id)

    def chunk_sources(self, doc_id: int) -> dict[int, tuple[int, ...]]:
        """Per-chunk live sources: full holders plus partial holders.

        Chunks no live partial holder has share one tuple.
        """
        manifest = self.manifests.get(doc_id)
        if manifest is None:
            return {}
        full = tuple(self.live_holders(doc_id))
        sources = dict.fromkeys(range(manifest.n_chunks), full)
        partials = self.partials.get(doc_id)
        if partials:
            extra: dict[int, list[int]] = {}
            alive = self.system.network.alive_among(partials.keys())
            for node_id in alive - set(full):
                for index in partials[node_id]:
                    if index in sources:
                        extra.setdefault(index, []).append(node_id)
            for index, nodes in extra.items():
                sources[index] = tuple(sorted((*full, *nodes)))
        return sources

    def note_partial(self, node_id: int, doc_id: int, index: int) -> None:
        self.partials.setdefault(doc_id, {}).setdefault(node_id, set()).add(
            index
        )

    def drop_partial(self, node_id: int, doc_id: int) -> None:
        held = self.partials.get(doc_id)
        if held is not None:
            held.pop(node_id, None)
            if not held:
                self.partials.pop(doc_id, None)

    # ------------------------------------------------------------------
    # lifecycle events and the control round
    # ------------------------------------------------------------------
    def ship_manifest(self, source_id: int, target_id: int, doc_id: int) -> None:
        """A copy of ``doc_id`` travels by transfer pull, outside the data
        plane: the source sends its manifest alongside."""
        manifest = self.manifests.get(doc_id)
        if manifest is not None:
            self.system.peers[source_id]._send(
                target_id,
                "manifest_update",
                manifest_to_update(manifest, holders=self.live_holders(doc_id)),
            )

    def peer_recovered(self, peer: "Peer") -> list[int]:
        """Audit a recovered peer's holdings before they are trusted.

        The cached manifest may be stale (the document's version was
        bumped while the node was dark): sync it from the registry, i.e.
        replay the missed bump.  Then :meth:`scrub` the corrupt copies.
        Returns the dropped doc ids.
        """
        content = peer.content_state
        for doc_id in sorted(peer.docs):
            registry = self.manifests.get(doc_id)
            if registry is not None:
                cached = content.manifests.get(doc_id)
                if cached is None or registry.version > cached.version:
                    content.manifests[doc_id] = registry
                    if content.on_manifest is not None:
                        content.on_manifest(doc_id, registry)
        return self.scrub(peer)

    def scrub(self, peer: "Peer") -> list[int]:
        """Drop ``peer``'s corrupt copies that another live holder has.

        The intact chunks of a dropped copy become verified partial state,
        so the replica loop re-copies the document instead of the peer
        re-advertising bad bytes; a corrupt *sole* copy is kept (corrupt
        beats destroyed).  Returns the dropped doc ids.
        """
        content = peer.content_state
        dropped: list[int] = []
        for doc_id, bad in sorted(content.corrupt.items()):
            if doc_id not in peer.docs or not bad:
                continue
            others = [
                holder
                for holder in self.live_holders(doc_id)
                if holder != peer.node_id
            ]
            if not others:
                continue  # sole copy: corrupt beats destroyed
            manifest = content.manifests.get(doc_id, self.manifests.get(doc_id))
            if manifest is not None:
                intact = set(range(manifest.n_chunks)) - set(bad)
                if intact:
                    content.partial.setdefault(doc_id, set()).update(intact)
                    for index in sorted(intact):
                        self.note_partial(peer.node_id, doc_id, index)
            content.corrupt.pop(doc_id, None)
            peer.drop_document(doc_id)
            dropped.append(doc_id)
        return dropped

    def run_round(self) -> dict:
        """One anti-entropy healing scan (the ``healing`` control round)."""
        return self.healer.run_round()

    # ------------------------------------------------------------------
    # fetches
    # ------------------------------------------------------------------
    def fetch(
        self, requester_id: int, doc_id: int, purpose: str = "fetch"
    ) -> int | None:
        """Start a multi-source fetch of ``doc_id`` at ``requester_id``.

        Returns the fetch id, or None when there is nothing to do (the
        requester already holds the document, is not alive, or the
        document is unknown).  A fetch with no live sources *is* started
        and immediately recorded as failed — unavailability must show up
        in the ledger, not vanish silently.
        """
        peer = self.system.peer(requester_id)
        if peer is None or not self.system.network.is_alive(requester_id):
            return None
        state = peer.content_state
        if state is None:
            return None
        if doc_id in peer.docs:
            return None
        manifest = self.manifests.get(doc_id)
        info = self.doc_info(doc_id)
        if manifest is None or info is None:
            return None
        fetch_id = next(self._next_fetch_id)
        record = FetchRecord(
            fetch_id=fetch_id,
            doc_id=doc_id,
            requester_id=requester_id,
            n_chunks=manifest.n_chunks,
            purpose=purpose,
            started_at=self.system.sim.now,
            manifest_version=manifest.version,
        )
        self.records.append(record)
        self._records_by_id[fetch_id] = record
        self._c_fetches.inc()
        if purpose == "heal":
            self._c_heal.inc()
        state.start_fetch(fetch_id, info, manifest, index=self)
        return fetch_id

    def record_for(self, fetch_id: int) -> FetchRecord | None:
        return self._records_by_id.get(fetch_id)

    # callbacks from the per-peer fetchers -----------------------------
    def on_chunk_failover(self, fetch_id: int) -> None:
        self._c_failovers.inc()
        record = self._records_by_id.get(fetch_id)
        if record is not None:
            record.failovers += 1

    def on_read_repair(self, fetch_id: int, doc_id: int) -> int:
        version = self.bump_version(doc_id)
        record = self._records_by_id.get(fetch_id)
        if record is not None:
            record.repairs += 1
            record.manifest_version = version
        return version

    def on_fetch_complete(
        self, fetch_id: int, chunk_hashes: tuple[int, ...], bytes_fetched: int
    ) -> None:
        record = self._records_by_id.get(fetch_id)
        if record is None or record.settled:
            return
        record.completed_at = self.system.sim.now
        record.verified = True
        record.chunk_hashes = chunk_hashes
        record.bytes_fetched = bytes_fetched
        self._c_completed.inc()
        self._c_bytes.value += bytes_fetched

    def on_fetch_failed(self, fetch_id: int, reason: str) -> None:
        record = self._records_by_id.get(fetch_id)
        if record is None or record.settled:
            return
        record.failed = True
        record.failure = reason
        self._c_failed.inc()
