"""Manifests: construction and wire round-trips."""

import pytest

from repro import obs
from repro.content import manifest as manifest_module
from repro.content.chunks import ContentConfig, chunk_hash
from repro.content.manifest import (
    Manifest,
    build_manifest,
    manifest_from_update,
    manifest_to_update,
)
from repro.overlay import messages as m
from repro.overlay.peer import PeerConfig
from repro.sim.network import Message
from repro.transport.wire import decode_frame, encode_frame

from tests.helpers import MicroOverlay


class TestBuildManifest:
    def test_hashes_are_content_derived(self):
        manifest = build_manifest(7, size_bytes=25, chunk_size=10)
        assert manifest.n_chunks == 3
        assert manifest.chunk_hashes == tuple(
            chunk_hash(7, i) for i in range(3)
        )
        assert manifest.version == 0

    def test_chunk_bytes_delegates_to_chunk_math(self):
        manifest = build_manifest(7, size_bytes=25, chunk_size=10)
        assert [manifest.chunk_bytes(i) for i in range(3)] == [10, 10, 5]

    def test_tiny_document_is_one_chunk(self):
        manifest = build_manifest(1, size_bytes=3, chunk_size=10)
        assert manifest.n_chunks == 1
        assert manifest.chunk_bytes(0) == 3


@pytest.fixture
def derived(monkeypatch):
    """Every ``(doc_id, index)`` the manifest module hashes, in order."""
    calls = []

    def counting(doc_id, index):
        calls.append((doc_id, index))
        return chunk_hash(doc_id, index)

    monkeypatch.setattr(manifest_module, "chunk_hash", counting)
    return calls


class TestLazyHashes:
    def test_hashes_are_derived_on_first_read_and_kept(self, derived):
        manifest = build_manifest(7, size_bytes=25, chunk_size=10)
        assert manifest.n_chunks == 3
        assert manifest.chunk_bytes(2) == 5
        assert derived == []
        first = manifest.chunk_hashes
        assert derived == [(7, 0), (7, 1), (7, 2)]
        assert manifest.chunk_hashes is first
        assert len(derived) == 3

    def test_equals_and_hashes_as_one_given_the_same_hashes(self):
        explicit = Manifest(
            doc_id=7, size_bytes=25, chunk_size=10, version=2,
            chunk_hashes=tuple(chunk_hash(7, i) for i in range(3)),
        )
        lazy = build_manifest(7, size_bytes=25, chunk_size=10, version=2)
        assert lazy == explicit and explicit == lazy
        assert hash(lazy) == hash(explicit)
        assert hash(lazy) == hash((7, 25, 10, 2, explicit.chunk_hashes))
        assert lazy != build_manifest(7, size_bytes=25, chunk_size=10)
        assert lazy != Manifest(7, 25, 10, 2, chunk_hashes=(1, 2, 3))
        assert lazy != (7, 25, 10, 2)

    def test_two_underived_manifests_compare_without_deriving(self, derived):
        assert build_manifest(7, 25, 10) == build_manifest(7, 25, 10)
        assert build_manifest(7, 25, 10) != build_manifest(8, 25, 10)
        assert derived == []

    def test_version_bump_neither_recomputes_nor_loses_hashes(self, derived):
        manifest = build_manifest(7, size_bytes=25, chunk_size=10)
        hashes = manifest.chunk_hashes
        bumped = manifest.with_version(4)
        assert bumped.version == 4 and manifest.version == 0
        assert bumped.chunk_hashes is hashes
        assert len(derived) == 3
        # A bump before the first read stays lazy.
        unread = build_manifest(9, size_bytes=25, chunk_size=10).with_version(1)
        assert len(derived) == 3
        assert unread == build_manifest(9, size_bytes=25, chunk_size=10, version=1)
        assert unread.chunk_hashes == tuple(chunk_hash(9, i) for i in range(3))

    def test_manifest_is_immutable(self):
        manifest = build_manifest(7, size_bytes=25, chunk_size=10)
        with pytest.raises(AttributeError):
            manifest.version = 1
        with pytest.raises(AttributeError):
            del manifest.doc_id

    @pytest.mark.parametrize("hashes", [(1, 2, 3), (1,), ()])
    def test_hash_count_must_match_the_size(self, hashes):
        with pytest.raises(ValueError, match="size implies 2"):
            Manifest(5, size_bytes=100, chunk_size=64, version=0,
                     chunk_hashes=hashes)

    def test_explicit_hashes_need_a_positive_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            Manifest(5, size_bytes=100, chunk_size=0, version=0,
                     chunk_hashes=(1, 2))


class TestWireRoundTrip:
    """The explicit manifest round-trip through the overlay wire codec.

    The hypothesis suite in test_message_roundtrip.py covers every
    registered type generically; this pins the full journey a real
    manifest takes — Manifest -> ManifestUpdate -> frame -> Manifest —
    including the holder hint and version.
    """

    @staticmethod
    def _wired(update):
        message = Message(1, 2, "manifest_update", update)
        return decode_frame(encode_frame(message)).payload

    def test_manifest_survives_the_wire(self):
        manifest = build_manifest(42, size_bytes=262_144,
                                  chunk_size=65_536, version=3)
        update = manifest_to_update(manifest, holders=(9, 1, 4))
        decoded = self._wired(update)
        assert type(decoded) is m.ManifestUpdate
        assert decoded == update
        assert decoded.holders == (1, 4, 9)  # holder hint arrives sorted
        assert manifest_from_update(decoded) == manifest

    def test_round_trip_preserves_version_and_hashes_exactly(self):
        manifest = Manifest(
            doc_id=5,
            size_bytes=100,
            chunk_size=64,
            version=17,
            chunk_hashes=(2**63 - 1, 0),
        )
        update = manifest_to_update(manifest)
        wired = self._wired(update)
        back = manifest_from_update(wired)
        assert back == manifest
        assert back.chunk_hashes == (2**63 - 1, 0)

    def test_lazy_manifest_puts_its_derived_hashes_on_the_wire(self):
        manifest = build_manifest(42, size_bytes=200, chunk_size=64, version=3)
        explicit = Manifest(42, 200, 64, 3, tuple(chunk_hash(42, i) for i in range(4)))
        update = manifest_to_update(manifest, holders=(2, 1))
        assert update == manifest_to_update(explicit, holders=(1, 2))
        assert encode_frame(Message(1, 2, "x", update)) == encode_frame(
            Message(1, 2, "x", manifest_to_update(explicit, holders=(1, 2)))
        )
        back = manifest_from_update(self._wired(update))
        assert back == manifest == explicit
        assert back.chunk_hashes == explicit.chunk_hashes

    def test_chunk_messages_are_registered_wire_types(self):
        for name in ("ManifestUpdate", "ChunkRequest", "ChunkData",
                     "ChunkRepair"):
            assert name in m.WIRE_TYPES


class TestHostileManifestUpdate:
    """A ``ManifestUpdate`` whose hash count disagrees with its size is
    dropped and counted before it is cached or journaled."""

    HOSTILE = {
        "too many": (1, 2, 3),
        "too few": (1,),
        "none": (),
    }

    @staticmethod
    def _update(hashes, **fields):
        fields = {"doc_id": 5, "size_bytes": 100, "chunk_size": 64,
                  "version": 0, **fields}
        return m.ManifestUpdate(chunk_hashes=hashes, **fields)

    @pytest.mark.parametrize("shape", sorted(HOSTILE))
    def test_decoding_raises(self, shape):
        with pytest.raises(ValueError):
            manifest_from_update(self._update(self.HOSTILE[shape]))

    @pytest.mark.parametrize("shape", sorted(HOSTILE))
    def test_handler_drops_and_counts_before_any_side_effect(self, shape):
        overlay = MicroOverlay()
        peer = overlay.add_peer(
            0, config=PeerConfig(content=ContentConfig(enabled=True))
        )
        content = peer.content_state
        journaled = []
        content.on_manifest = lambda doc_id, manifest: journaled.append(doc_id)
        honest = build_manifest(5, size_bytes=100, chunk_size=64)
        content.manifests[5] = honest
        rejected = obs.counter("overlay.rejected_messages")
        before = rejected.value
        hostile = self._update(self.HOSTILE[shape], version=9)
        peer.handle_message(
            Message(src=9, dst=0, kind="manifest_update", payload=hostile)
        )
        assert rejected.value - before == 1
        assert content.manifests[5] is honest
        assert journaled == []
        # The honest update of the same version is still taken.
        peer.handle_message(
            Message(
                src=9, dst=0, kind="manifest_update",
                payload=manifest_to_update(honest.with_version(9)),
            )
        )
        assert rejected.value - before == 1
        assert content.manifests[5].version == 9
        assert journaled == [5]

