"""Durable crash recovery: per-peer WAL + snapshot persistence.

Off by default.  When armed (``DurabilityConfig(enabled=True)``) every
peer carries a :class:`PeerJournal` that appends one checksummed record
per acknowledged state change and periodically compacts the log into a
canonical snapshot.  Recovery replays snapshot + longest-valid-WAL-
prefix; the overlay layers epoch-fenced category ownership and a
partition-heal reconciliation round on top (see
``docs/architecture.md`` §"Durability & recovery").
"""

from repro.durability.journal import (
    DurabilityConfig,
    PeerJournal,
    durable_state,
    materialize,
)
from repro.durability.store import FileStore, MemoryStore
from repro.durability.wal import (
    decode_snapshot,
    encode_record,
    encode_snapshot,
    replay_wal,
)

__all__ = [
    "DurabilityConfig",
    "PeerJournal",
    "durable_state",
    "materialize",
    "MemoryStore",
    "FileStore",
    "encode_record",
    "replay_wal",
    "encode_snapshot",
    "decode_snapshot",
]
