"""Reproducible random-stream management.

Experiments need several independent randomness sources — workload
generation, protocol-level choices (random target node, gossip fan-out),
fault injection — that must not perturb each other: adding one extra
protocol coin-flip must not change which documents a workload requests.

:class:`RngRegistry` hands out one :class:`numpy.random.Generator` per
named stream, derived deterministically from a root seed and the stream
name, so streams are independent and individually reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngRegistry", "derive_seed"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name.

    Uses SHA-256 so the mapping is stable across platforms and Python
    versions (unlike the salted builtin ``hash``).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """A family of independent, named random generators.

    Example::

        rngs = RngRegistry(root_seed=42)
        workload_rng = rngs.stream("workload")
        protocol_rng = rngs.stream("protocol")

    Asking for the same name twice returns the same generator instance.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = root_seed
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        generator = self._streams.get(name)
        if generator is None:
            generator = np.random.default_rng(derive_seed(self.root_seed, name))
            self._streams[name] = generator
        return generator
