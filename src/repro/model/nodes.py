"""Peer nodes and their contributed resources.

The paper's resource model (Sections 4.1 and 4.3):

* Each node ``n`` contributes documents ``D(n)`` spanning categories
  ``S(n)``, a number of *processing capacity units* ``u_n`` (measured
  relative to a reference machine — Section 4.3.1), and storage capacity.
* Only "altruistic" nodes are modelled: free riders contribute nothing and
  are excluded from the resource-management algorithms (Section 4.4), though
  the overlay's join protocol still admits them via a dummy publish.
* A node belongs to every cluster that holds a category it contributes to,
  splitting its computational units across those clusters in proportion to
  the popularity it stores for each (Section 4.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Node"]


@dataclass(slots=True)
class Node:
    """A peer contributing content and resources to the community.

    Attributes
    ----------
    node_id:
        Unique integer identifier.
    capacity_units:
        Processing capacity ``u_n`` relative to a reference node; the
        paper's experiments draw this uniformly from [1..5].
    storage_bytes:
        Total local storage the node offers.  ``None`` models the
        simplifying assumption of Sections 4.1-4.3.2 (enough storage for
        every document of its clusters' categories).
    contributed_doc_ids:
        Documents this node originally published.
    stored_doc_ids:
        Documents currently stored locally (contributions plus replicas
        placed by the Section 4.3.3 policy); maintained by the replication
        and rebalancing machinery.
    """

    node_id: int
    capacity_units: float = 1.0
    storage_bytes: int | None = None
    contributed_doc_ids: list[int] = field(default_factory=list)
    stored_doc_ids: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.capacity_units <= 0:
            raise ValueError(
                f"capacity_units must be positive, got {self.capacity_units}"
            )
        if self.storage_bytes is not None and self.storage_bytes < 0:
            raise ValueError(
                f"storage_bytes must be non-negative, got {self.storage_bytes}"
            )

    @property
    def is_free_rider(self) -> bool:
        """True when the node contributes no documents (cf. Adar & Huberman)."""
        return not self.contributed_doc_ids

    def contribute(self, doc_id: int) -> None:
        """Record ``doc_id`` as contributed (and therefore stored) here."""
        self.contributed_doc_ids.append(doc_id)
        self.stored_doc_ids.add(doc_id)
