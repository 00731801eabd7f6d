"""Tests for repro.model.nodes."""

import pytest

from repro.model.nodes import Node


class TestNode:
    def test_contribute_stores_locally(self):
        node = Node(node_id=1)
        node.contribute(10)
        assert 10 in node.stored_doc_ids
        assert node.contributed_doc_ids == [10]
        assert not node.is_free_rider

    def test_free_rider(self):
        assert Node(node_id=1).is_free_rider

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Node(node_id=1, capacity_units=0)

    def test_rejects_negative_storage(self):
        with pytest.raises(ValueError):
            Node(node_id=1, storage_bytes=-1)
