"""Pluggable backing stores for a peer's WAL + snapshot.

Two implementations of the same three-method contract
(``append`` / ``write_snapshot`` / ``load``):

* :class:`MemoryStore` — the simulator's store.  Deterministic and
  byte-replayable: it holds exactly the bytes a file store would hold,
  so torn-write and replay semantics are testable without touching a
  filesystem, and a "power loss" in the sim simply re-reads the bytes.
* :class:`FileStore` — the live runtime's store, rooted at a
  ``--state-dir``.  The WAL is appended with flush+fsync per record
  (records are rare control-plane events, not data-path traffic);
  snapshots are written to a temp file and atomically renamed, and the
  directory is fsync'd, before the WAL is truncated, so a crash between
  the two leaves either the old snapshot + full WAL or the new snapshot
  + empty WAL — both replayable.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["MemoryStore", "FileStore"]

SNAPSHOT_NAME = "snapshot.bin"
WAL_NAME = "wal.log"


class MemoryStore:
    """In-memory WAL + snapshot bytes (the simulator's 'disk')."""

    def __init__(self) -> None:
        self._snapshot: bytes | None = None
        self._wal = bytearray()

    def append(self, data: bytes) -> None:
        # Bounded: the journal compacts, clearing the WAL, every
        # ``snapshot_every`` records.
        self._wal += data

    def write_snapshot(self, data: bytes) -> None:
        self._snapshot = bytes(data)
        self._wal.clear()

    def load(self) -> tuple[bytes | None, bytes]:
        return self._snapshot, bytes(self._wal)

    def close(self) -> None:  # same contract as FileStore; nothing held
        pass


class FileStore:
    """File-backed WAL + snapshot under one state directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.snapshot_path = self.root / SNAPSHOT_NAME
        self.wal_path = self.root / WAL_NAME
        self._wal_file = None

    def _wal_handle(self):
        if self._wal_file is None or self._wal_file.closed:
            self._wal_file = open(self.wal_path, "ab")
        return self._wal_file

    def append(self, data: bytes) -> None:
        handle = self._wal_handle()
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())

    def write_snapshot(self, data: bytes) -> None:
        tmp = self.snapshot_path.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.snapshot_path)
        # Truncate the WAL only after the rename is durable: without the
        # directory's fsync a power loss may keep the truncation and lose
        # the rename, and with it every acknowledged record.
        directory = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
        if self._wal_file is not None and not self._wal_file.closed:
            self._wal_file.close()
        with open(self.wal_path, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        self._wal_file = None

    def load(self) -> tuple[bytes | None, bytes]:
        snapshot = (
            self.snapshot_path.read_bytes()
            if self.snapshot_path.exists()
            else None
        )
        wal = self.wal_path.read_bytes() if self.wal_path.exists() else b""
        return snapshot, wal

    def close(self) -> None:
        if self._wal_file is not None and not self._wal_file.closed:
            self._wal_file.close()
        self._wal_file = None
