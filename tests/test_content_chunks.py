"""Unit tests for the chunk math and content hashes (repro.content.chunks)."""

import pytest

from repro.content.chunks import (
    CHUNK_REQUEST_ID_BASE,
    DEFAULT_CHUNK_SIZE,
    ContentConfig,
    chunk_bytes,
    chunk_hash,
    corrupted_hash,
    n_chunks,
)
from repro.model.documents import Document


class TestNChunks:
    def test_ceil_division(self):
        assert n_chunks(1, 10) == 1
        assert n_chunks(10, 10) == 1
        assert n_chunks(11, 10) == 2
        assert n_chunks(100, 10) == 10
        assert n_chunks(101, 10) == 11

    def test_never_zero(self):
        # Even degenerate sizes occupy one chunk: every document has at
        # least one unit of transferable, hashable content.
        assert n_chunks(0, 10) == 1
        assert n_chunks(-5, 10) == 1

    def test_chaos_world_documents_split_into_four(self):
        # The chaos worlds use 256 KiB documents; at the default chunk
        # size they split into exactly four chunks.
        assert n_chunks(262_144, DEFAULT_CHUNK_SIZE) == 4


class TestChunkBytes:
    def test_full_chunks_then_short_tail(self):
        assert chunk_bytes(25, 0, 10) == 10
        assert chunk_bytes(25, 1, 10) == 10
        assert chunk_bytes(25, 2, 10) == 5

    def test_exact_multiple_has_no_short_tail(self):
        assert chunk_bytes(30, 2, 10) == 10

    def test_sums_to_document_size(self):
        for size in (1, 9, 10, 11, 25, 262_144):
            total = n_chunks(size, 10)
            assert sum(chunk_bytes(size, i, 10) for i in range(total)) == size

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            chunk_bytes(25, 3, 10)
        with pytest.raises(IndexError):
            chunk_bytes(25, -1, 10)


class TestChunkHash:
    def test_deterministic(self):
        assert chunk_hash(7, 3) == chunk_hash(7, 3)

    def test_depends_on_doc_and_index(self):
        values = {
            chunk_hash(doc_id, index)
            for doc_id in range(20)
            for index in range(8)
        }
        assert len(values) == 20 * 8  # no collisions at this scale

    def test_fits_wire_scalar_range(self):
        # Hashes must survive the JSON wire codec as plain ints.
        for doc_id in (0, 1, 99, 10**9):
            value = chunk_hash(doc_id, 0)
            assert 0 <= value < 2**63

    def test_corruption_always_changes_the_hash(self):
        for doc_id in range(50):
            value = chunk_hash(doc_id, 0)
            assert corrupted_hash(value) != value
            assert 0 <= corrupted_hash(value) < 2**63

    def test_corruption_is_an_involution(self):
        # Repairing writes the true hash back; corrupting twice models
        # nothing, but the XOR mask guarantees it round-trips.
        value = chunk_hash(3, 1)
        assert corrupted_hash(corrupted_hash(value)) == value


class TestContentConfig:
    def test_disabled_by_default(self):
        config = ContentConfig()
        assert not config.enabled
        assert config.chunk_size == DEFAULT_CHUNK_SIZE

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_size": 0},
            {"chunk_size": -1},
            {"replication_floor": 0},
            {"chunk_timeout": 0.0},
            {"max_chunk_attempts": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ContentConfig(**kwargs)

    def test_request_id_namespace_is_disjoint_from_queries(self):
        # BUSY routing tells chunk requests from queries by id range.
        assert CHUNK_REQUEST_ID_BASE >= 10**12


class TestDocumentIntegration:
    def test_document_n_chunks_matches_chunk_math(self):
        doc = Document(doc_id=1, popularity=0.1, categories=(0,),
                       size_bytes=262_144)
        assert doc.n_chunks() == n_chunks(262_144, DEFAULT_CHUNK_SIZE) == 4
        assert doc.n_chunks(chunk_size=100_000) == 3

    def test_default_document_size(self):
        # The paper's 4 MB MP3 splits into 64 default-size chunks.
        doc = Document(doc_id=1, popularity=0.1, categories=(0,))
        assert doc.n_chunks() == 64
