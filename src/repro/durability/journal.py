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
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, itemgetter

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


def durable_state(peer, flags=None) -> dict:
    """Snapshot a peer's durable state as the canonical dict.

    ``peer`` is duck-typed (the overlay's :class:`Peer`): this module
    must not import the overlay, which imports it.
    """
    # ``flags`` is ignored; benchmarks/stack/workloads.py still passes it.
    docs, content = peer.docs, peer.content_state
    return {
        "dcrt": [
            [category_id, entry.cluster_id, entry.move_counter]
            for category_id, entry in peer.dcrt.items()
        ],
        "docs": list(map(_STORE_ROW, map(docs.__getitem__, sorted(docs)))),
        "epochs": [
            [category_id, epoch]
            for category_id, epoch in sorted(peer.ownership_epochs.items())
            if epoch > 0
        ],
        "manifests": [] if content is None else [
            [doc_id, manifest.size_bytes, manifest.chunk_size, manifest.version]
            for doc_id, manifest in sorted(content.manifests.items())
        ],
        "memberships": sorted(peer.memberships),
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

    def __init__(
        self,
        store,
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
        """Write a snapshot of the owner's full state; truncate the WAL."""
        if self.snapshot_fn is None:
            return
        state = self.snapshot_fn()
        self.store.write_snapshot(encode_snapshot(state, self.bodies))
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
