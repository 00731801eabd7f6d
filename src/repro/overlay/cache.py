"""Requester-side document cache: LRU replacement and accounting.

The X2 experiment showed that a peer keeping the documents it retrieves
(and registering as a holder for them) spreads hot-content load across
requesters.  The cache evicts the least recently *stored or
re-retrieved* document: serving a cached copy to another peer does
**not** refresh recency (only the owner re-retrieving it does), so
existing experiment goldens replay exactly.

The cache holds only bookkeeping — doc ids in recency order.  Storage
itself stays with the peer: fills go through ``Peer.store_document`` (so
the holder directory registers the cached copy) and evictions through
``Peer.drop_document`` (so it deregisters), keeping the cluster metadata
and physical stores consistent, which the ``holder-consistency`` chaos
invariant checks.

The accounting counters (:attr:`DocumentCache.fills`,
:attr:`~DocumentCache.evictions`, :attr:`~DocumentCache.served_hits`)
feed :meth:`Peer.cache_stats` — one of the demand signals the
:mod:`~repro.overlay.replication_manager` control loop reads.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["DocumentCache"]


class DocumentCache:
    """Bounded LRU set of cache-owned document ids.

    Tracks only *cache-owned* entries — contributions and placed replicas
    never enter and are therefore never evicted.  ``capacity == 0``
    disables the cache (nothing is ever admitted by the peer).
    """

    __slots__ = ("capacity", "_entries", "fills", "evictions", "served_hits")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        #: cache-owned doc ids in recency order (oldest first).
        self._entries: "OrderedDict[int, None]" = OrderedDict()
        #: documents admitted into the cache.
        self.fills = 0
        #: documents evicted to make room.
        self.evictions = 0
        #: queries this peer answered out of a cached copy (incremented
        #: by the peer's serve path, not by the cache itself).
        self.served_hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def owns(self, doc_id: int) -> bool:
        """True when ``doc_id`` is a cache-owned (evictable) entry."""
        return doc_id in self._entries

    def doc_ids(self) -> list[int]:
        """Cache-owned document ids in eviction-bookkeeping order."""
        return list(self._entries)

    def touch(self, doc_id: int) -> bool:
        """Record a re-retrieval of an already-cached document.

        Refreshes recency.  Returns False when the document is not
        cache-owned, leaving state alone.
        """
        if doc_id not in self._entries:
            return False
        self._entries.move_to_end(doc_id)
        return True

    def add(self, doc_id: int) -> tuple[int, ...]:
        """Admit a newly retrieved document; return the evicted doc ids.

        The caller stores the document *before* calling and drops every
        returned id *after* — mirroring the historical inline order so
        holder-directory registration stays identical.
        """
        self._entries[doc_id] = None
        self.fills += 1
        evicted: list[int] = []
        while len(self._entries) > self.capacity:
            victim, _ = self._entries.popitem(last=False)
            self.evictions += 1
            evicted.append(victim)
        return tuple(evicted)

    def discard(self, doc_id: int) -> bool:
        """Forget an entry without counting an eviction (external drop)."""
        if doc_id not in self._entries:
            return False
        del self._entries[doc_id]
        return True

    def stats(self) -> dict:
        """Read-only accounting snapshot (see ``Peer.cache_stats``)."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "fills": self.fills,
            "evictions": self.evictions,
            "served_hits": self.served_hits,
        }
