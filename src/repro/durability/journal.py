"""Per-peer durability journal: WAL records + compacting snapshots.

A :class:`PeerJournal` owns one peer's durable state stream.  The peer
(and the deployment around it) appends one record per acknowledged
state change — document stored or dropped, DCRT entry installed,
ownership epoch adopted, cluster joined, manifest version learned —
and the journal periodically compacts the log into a snapshot of the
full durable state (provided by the owner through ``snapshot_fn``).

Recovery is ``materialize(snapshot, records)``: the snapshot seeds the
state and the WAL's longest valid prefix replays over it.  The result
is a *canonical* dict (sorted lists, fixed keys) so that
``encode_snapshot(materialize(...))`` is byte-comparable against
``encode_snapshot(durable_state(peer))`` — the property the
byte-identical-replay tests assert.

A journal's first snapshot, its owner's state at attach, goes to the
store unencoded (a list of references to the owner's frozen document
records, not a row each); the store encodes it when it needs the bytes.
Every later snapshot is encoded when it is compacted.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, itemgetter

from repro.durability.store import FileStore, MemoryStore
from repro.durability.wal import (
    SECTIONS,
    StoreBodies,
    decode_snapshot,
    encode_record,
    encode_snapshot,
    replay_wal,
    state_records,
)

__all__ = [
    "DurabilityConfig",
    "PeerJournal",
    "durable_state",
    "materialize",
]


@dataclass(frozen=True, slots=True)
class DurabilityConfig:
    """Knobs for the durability layer (off by default).

    Disabled means *nothing* is constructed: no journals, no WAL
    appends, no extra invariant checks, and no RNG draws — default
    runs, goldens, chaos reproducers, and BENCH comparisons stay
    byte-identical.
    """

    #: master switch for the whole subsystem.
    enabled: bool = False
    #: WAL records between compacting snapshots.
    snapshot_every: int = 256

    def __post_init__(self) -> None:
        if self.snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )


#: a held document's ``docs`` row: doc id, size and categories.
_STORE_ROW = attrgetter("doc_id", "size_bytes", "categories")
_DOC_ID = attrgetter("doc_id")


class _Rows:
    """Held documents as ``docs`` rows in id order, sorted and made from
    the (frozen, world-shared) ``DocInfo``s each time they are iterated."""

    __slots__ = ("_infos",)

    def __init__(self, infos: list) -> None:
        self._infos = infos

    def __iter__(self):
        return map(_STORE_ROW, sorted(self._infos, key=_DOC_ID))


class _Snapshot:
    """A snapshot not yet encoded: ``bytes()`` of it encodes ``state``,
    drawing its ``store`` bodies from ``bodies``."""

    __slots__ = ("_state", "_bodies")

    def __init__(self, state: dict, bodies: StoreBodies) -> None:
        self._state, self._bodies = state, bodies

    def __bytes__(self) -> bytes:
        return encode_snapshot(self._state, self._bodies)


def durable_state(peer, flags=None) -> dict:
    """Snapshot a peer's durable state as the canonical dict.

    Its ``docs`` section is an iterable of rows read off the peer's
    document records at each pass; the others are tuples of ints or of
    int tuples, which the collector stops tracking, since a baseline
    keeps its state until it is read.  ``peer`` is duck-typed (the overlay's :class:`Peer`):
    this module must not import the overlay, which imports it.
    """
    # ``flags`` is ignored; benchmarks/stack/workloads.py still passes it.
    content = peer.content_state
    return {
        "dcrt": tuple(
            (category_id, entry.cluster_id, entry.move_counter)
            for category_id, entry in peer.dcrt.items()
        ),
        "docs": _Rows(list(peer.docs.values())),
        "epochs": tuple(
            row for row in sorted(peer.ownership_epochs.items()) if row[1] > 0
        ),
        "manifests": () if content is None else tuple(
            (doc_id, manifest.size_bytes, manifest.chunk_size, manifest.version)
            for doc_id, manifest in sorted(content.manifests.items())
        ),
        "memberships": tuple(sorted(peer.memberships)),
    }


def materialize(snapshot: dict | None, records) -> dict:
    """Snapshot + replayed WAL records -> the canonical durable state.

    Each section keeps one row per key, its first field, sorted by key: a
    record replaces its key's row, except that a ``drop`` deletes one, an
    epoch or a manifest version never moves back, and only positive
    epochs are kept.
    """
    tables: dict[str, dict] = {section: {} for section in SECTIONS.values()}
    if snapshot is not None:
        records = chain(state_records(snapshot), records)
    for kind, key, *row in records:
        if kind == "drop":
            tables["docs"].pop(key, None)
            continue
        table = tables[SECTIONS[kind]]
        if kind in ("epoch", "manifest") and row[-1] < table.get(key, row)[-1]:
            continue
        table[key] = row
    state = {
        section: [[key, *row] if row else key for key, row in sorted(table.items())]
        for section, table in tables.items()
    }
    state["epochs"] = [row for row in state["epochs"] if row[1] > 0]
    return state


class PeerJournal:
    """One peer's append-only WAL with periodic compacting snapshots.

    ``bodies`` is the :class:`StoreBodies` cache its snapshots draw
    ``store`` bodies from: a world passes the one its journals share,
    and a journal given none keeps its own.
    """

    __slots__ = (
        "store", "config", "bodies", "snapshot_fn", "flags",
        "records_written", "snapshots_written",
        "_records_since_snapshot", "_durable_docs",
    )

    def __init__(
        self,
        store: MemoryStore | FileStore,
        config: DurabilityConfig | None = None,
        bodies: StoreBodies | None = None,
    ) -> None:
        self.store = store
        self.config = (
            config if config is not None else DurabilityConfig(enabled=True)
        )
        self.bodies = bodies if bodies is not None else StoreBodies()
        #: () -> canonical durable state; set by the owning peer/system
        #: at attach time.  Compaction is a no-op until it is set.
        self.snapshot_fn = None
        #: read by benchmarks/stack/workloads.py; nothing here writes it.
        self.flags: dict = {}
        self.records_written = 0
        self.snapshots_written = 0
        self._records_since_snapshot = 0
        #: doc ids the log currently acknowledges as held; None until
        #: :meth:`durable_doc_ids` first builds it from the store, then
        #: maintained incrementally so later reads replay nothing.  Only
        #: invariant checks and restarts read it, so a world that never
        #: does keeps no second copy of every peer's holdings.
        self._durable_docs: set[int] | None = None

    # ------------------------------------------------------------------
    def record(self, *record) -> None:
        """Append one durable record (synchronous: the write IS the ack)."""
        self.store.append(encode_record(record))
        durable_docs = self._durable_docs
        if durable_docs is not None:
            if record[0] == "store":
                durable_docs.add(record[1])
            elif record[0] == "drop":
                durable_docs.discard(record[1])
        self.records_written += 1
        self._records_since_snapshot += 1
        if (
            self.snapshot_fn is not None
            and self._records_since_snapshot >= self.config.snapshot_every
        ):
            self.compact()

    def compact(self) -> None:
        """Write a snapshot of the owner's full state; truncate the WAL.
        The first (at attach) goes to the store unencoded."""
        if self.snapshot_fn is None:
            return
        state = self.snapshot_fn()
        snapshot = _Snapshot(state, self.bodies)
        self.store.write_snapshot(
            bytes(snapshot) if self.snapshots_written else snapshot
        )
        if self._durable_docs is not None:
            self._durable_docs = set(map(itemgetter(0), state["docs"]))
        self.snapshots_written += 1
        self._records_since_snapshot = 0

    def load(self) -> dict:
        """Materialize snapshot + longest-valid-WAL-prefix into one state."""
        snapshot, wal_bytes = self.store.load()
        return materialize(decode_snapshot(snapshot or b""), replay_wal(wal_bytes))

    def durable_doc_ids(self) -> Set[int]:
        """Doc ids the journal currently acknowledges as held.

        Built from the store on the first call (one ``load``, replayed
        only when the store holds something), then maintained.  The
        journal's own set, not a copy: read-only for callers, and only
        valid until the next record or compaction.
        """
        if self._durable_docs is None:
            snapshot, wal_bytes = self.store.load()
            docs = materialize(
                decode_snapshot(snapshot or b""), replay_wal(wal_bytes)
            )["docs"] if snapshot or wal_bytes else ()
            self._durable_docs = set(map(itemgetter(0), docs))
        return self._durable_docs
