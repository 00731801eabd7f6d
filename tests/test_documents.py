"""Tests for repro.model.documents."""

import pytest

from repro.model.documents import Category, Document


class TestDocument:
    def test_single_category_share(self):
        doc = Document(doc_id=1, popularity=0.4, categories=(2,))
        assert doc.popularity_per_category == pytest.approx(0.4)

    def test_multi_category_split_evenly(self):
        # Section 4.1: "If a document belongs to more than one semantic
        # category, its popularity is evenly distributed among them."
        doc = Document(doc_id=1, popularity=0.6, categories=(0, 1, 2))
        assert doc.popularity_per_category == pytest.approx(0.2)

    def test_rejects_empty_categories(self):
        with pytest.raises(ValueError):
            Document(doc_id=1, popularity=0.1, categories=())

    def test_rejects_duplicate_categories(self):
        with pytest.raises(ValueError):
            Document(doc_id=1, popularity=0.1, categories=(3, 3))

    def test_rejects_negative_popularity(self):
        with pytest.raises(ValueError):
            Document(doc_id=1, popularity=-0.1, categories=(0,))

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Document(doc_id=1, popularity=0.1, categories=(0,), size_bytes=0)

    def test_default_size_is_4mb(self):
        doc = Document(doc_id=1, popularity=0.1, categories=(0,))
        assert doc.size_bytes == 4 * 1024 * 1024

    def test_frozen(self):
        doc = Document(doc_id=1, popularity=0.1, categories=(0,))
        with pytest.raises(AttributeError):
            doc.popularity = 0.5


class TestCategory:
    def test_add_document_accumulates_popularity(self):
        category = Category(category_id=0)
        category.add_document(Document(doc_id=1, popularity=0.3, categories=(0,)))
        category.add_document(Document(doc_id=2, popularity=0.2, categories=(0,)))
        assert category.popularity == pytest.approx(0.5)
        assert category.n_docs == 2
        assert category.doc_ids == [1, 2]

    def test_add_document_uses_split_share(self):
        category = Category(category_id=0)
        category.add_document(Document(doc_id=1, popularity=0.4, categories=(0, 1)))
        assert category.popularity == pytest.approx(0.2)

    def test_add_document_wrong_category_rejected(self):
        category = Category(category_id=0)
        with pytest.raises(ValueError):
            category.add_document(Document(doc_id=1, popularity=0.1, categories=(1,)))
