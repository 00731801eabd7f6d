"""Documents and document categories.

The paper's content model (Sections 1.2 and 4.1):

* A set ``D`` of sharable documents, each with a popularity ``p(d)`` in
  [0, 1] — the probability a user request targets it.
* A set ``S`` of categories and a mapping ``f: D -> S`` assigning each
  document to one *or more* categories.  When a document belongs to several
  categories its popularity is split evenly among them.
* The popularity of a category is the sum of the (shares of) popularities
  of its documents: ``p(s) = sum of p(d) over d with f(d) = s``.

Categories are the unit of assignment: each category is placed in exactly
one peer cluster by the MaxFair algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Document", "Category"]


@dataclass(frozen=True, slots=True)
class Document:
    """A sharable document contributed to the community.

    Attributes
    ----------
    doc_id:
        Unique integer identifier.
    popularity:
        Probability in [0, 1] that a request targets this document.
    categories:
        The categories the document belongs to (at least one).  Popularity
        is split evenly among them, per Section 4.1.
    size_bytes:
        Document size; enters only storage and transfer-cost computations
        (the paper's running example uses 4 MB, a 3-minute MP3).
    """

    doc_id: int
    popularity: float
    categories: tuple[int, ...]
    size_bytes: int = 4 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.popularity < 0.0:
            raise ValueError(f"popularity must be >= 0, got {self.popularity}")
        if not self.categories:
            raise ValueError("a document must belong to at least one category")
        if len(self.categories) > 1 and len(set(self.categories)) != len(
            self.categories
        ):
            raise ValueError(f"duplicate categories: {self.categories}")
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {self.size_bytes}")

    @property
    def popularity_per_category(self) -> float:
        """The share of this document's popularity each category receives."""
        return self.popularity / len(self.categories)


@dataclass(slots=True)
class Category:
    """A document category (semantic or hash-defined group of documents).

    Attributes
    ----------
    category_id:
        Unique integer identifier.
    name:
        Human-readable label (e.g. a genre in the paper's music example).
    doc_ids:
        Identifiers of the documents mapped to this category.
    popularity:
        ``p(s)`` — the summed popularity shares of its documents.
    """

    category_id: int
    name: str = ""
    doc_ids: list[int] = field(default_factory=list)
    popularity: float = 0.0

    def add_document(self, doc: Document) -> None:
        """Register ``doc`` and accumulate its popularity share."""
        if self.category_id not in doc.categories:
            raise ValueError(
                f"document {doc.doc_id} does not belong to category "
                f"{self.category_id}"
            )
        self.doc_ids.append(doc.doc_id)
        self.popularity += doc.popularity_per_category

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

