"""Chunk math and content hashes for the simulated data plane.

Documents carry no real bytes — what moves through the network is a
*size*, and what gets verified is a deterministic per-chunk content
hash derived from ``(doc_id, chunk_index)``.  That is enough to model
everything the robustness loop cares about: transfer time (the network
already charges ``size_bytes / bandwidth``), integrity (a corrupt
replica serves a hash that fails verification), and repair (pushing
the correct hash back).

Hashes are 63-bit non-negative integers so chunk messages stay within
the wire codec's scalar types (no raw strings or bytes on the wire).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ContentConfig",
    "chunk_bytes",
    "chunk_hash",
    "corrupted_hash",
    "n_chunks",
]

#: default fixed chunk size (bytes); the chaos worlds' 256 KiB documents
#: split into four chunks at this size.
DEFAULT_CHUNK_SIZE = 65_536

_HASH_MASK = (1 << 63) - 1
#: non-zero constant XORed into a hash to model corruption; any non-zero
#: mask guarantees ``corrupted_hash(h) != h``.
_CORRUPTION_MASK = 0x5DEECE66D


@dataclass(frozen=True, slots=True)
class ContentConfig:
    """Knobs for the content data plane (off by default).

    Disabled means *nothing* is constructed: no manifests, no metrics,
    no per-peer fetch state, and no extra RNG draws — default runs and
    their deterministic metric snapshots stay byte-identical.
    """

    #: master switch for the whole subsystem.
    enabled: bool = False
    #: fixed chunk size documents are split into.
    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: anti-entropy healing re-replicates any document whose live full
    #: holder count fell below this floor (when live targets exist).
    replication_floor: int = 2
    #: per-chunk response deadline before the fetcher fails over to
    #: another source (and reports a miss to the failure detector).
    chunk_timeout: float = 1.5
    #: attempts per chunk (initial request + failovers) before the whole
    #: fetch is abandoned.
    max_chunk_attempts: int = 4

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be > 0, got {self.chunk_size}")
        if self.replication_floor < 1:
            raise ValueError(
                f"replication_floor must be >= 1, got {self.replication_floor}"
            )
        if self.chunk_timeout <= 0:
            raise ValueError(
                f"chunk_timeout must be > 0, got {self.chunk_timeout}"
            )
        if self.max_chunk_attempts < 1:
            raise ValueError(
                f"max_chunk_attempts must be >= 1, got {self.max_chunk_attempts}"
            )


def n_chunks(size_bytes: int, chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
    """Number of fixed-size chunks a document of ``size_bytes`` splits into."""
    if size_bytes <= 0:
        return 1
    return -(-size_bytes // chunk_size)


def chunk_bytes(
    size_bytes: int, index: int, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> int:
    """Byte length of chunk ``index`` (the last chunk may be short)."""
    total = n_chunks(size_bytes, chunk_size)
    if not 0 <= index < total:
        raise IndexError(f"chunk {index} out of range for {total} chunks")
    if index == total - 1:
        return size_bytes - index * chunk_size if size_bytes > 0 else 1
    return chunk_size


def chunk_hash(doc_id: int, index: int) -> int:
    """Deterministic content hash of chunk ``index`` of ``doc_id``."""
    digest = hashlib.blake2b(
        f"repro.content:{doc_id}:{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") & _HASH_MASK


def corrupted_hash(value: int) -> int:
    """The hash a corrupt replica serves in place of ``value``."""
    return (value ^ _CORRUPTION_MASK) & _HASH_MASK
