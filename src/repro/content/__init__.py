"""Self-healing content data plane (chunked transfer + repair loops).

Documents gain simulated bytes split into fixed-size chunks with
deterministic content hashes; a per-document :class:`Manifest` (chunk
hashes, size, version) is registered alongside the cluster metadata,
and fetches move chunks from multiple sources with per-chunk integrity
verification and mid-transfer failover.  Two robustness loops ride
on top: read-repair (:mod:`repro.content.fetcher`) and anti-entropy
healing (:mod:`repro.content.healer`, one caller of the replica loop
in :mod:`repro.overlay.replication_manager`).

Everything is off by default (``ContentConfig(enabled=False)``):
disabled runs construct nothing, register no metrics, and consume no
randomness, keeping deterministic snapshots byte-identical.
"""

from repro.content.chunks import (  # noqa: F401
    DEFAULT_CHUNK_SIZE,
    ContentConfig,
    chunk_bytes,
    chunk_hash,
    corrupted_hash,
    n_chunks,
)
from repro.content.fetcher import PeerContent  # noqa: F401
from repro.content.healer import ContentHealer  # noqa: F401
from repro.content.manifest import (  # noqa: F401
    ContentManager,
    FetchRecord,
    Manifest,
    build_manifest,
    manifest_from_update,
    manifest_to_update,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ContentConfig",
    "ContentHealer",
    "ContentManager",
    "FetchRecord",
    "Manifest",
    "PeerContent",
    "build_manifest",
    "chunk_bytes",
    "chunk_hash",
    "corrupted_hash",
    "manifest_from_update",
    "manifest_to_update",
    "n_chunks",
]
