"""Lazy rebalancing helpers (Section 6.1.2).

MaxFair_Reassign only decides *which* categories move *where*; the actual
data movement follows the lazy protocol:

1. metadata in the source and destination clusters is updated first (with
   trace data pointing to the destination);
2. the category's document groups are transferred by *pairing* nodes of
   the source cluster with nodes of the destination cluster — one small
   transfer per pair instead of one huge transfer;
3. requests arriving at the source cluster are forwarded to the
   destination; 4. destinations missing content pull it on demand from
   their coupled source node; 5. piggybacked and epidemic metadata updates
   spread the new mapping.

Steps 3-5 are implemented in :mod:`repro.overlay.peer`; this module
provides the pairing and the closed-form cost model for the paper's
Section 6.1.3 example (experiment T3).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["pair_nodes", "RebalanceCostModel", "rebalance_cost"]


def pair_nodes(
    source_members: list[int], destination_members: list[int]
) -> list[tuple[int, int]]:
    """Couple source-cluster nodes with destination-cluster nodes.

    Every destination node gets exactly one source partner (so the whole
    destination cluster is populated); source nodes cycle when the source
    cluster is smaller.  Deterministic given member ordering.
    """
    if not source_members or not destination_members:
        return []
    pairs = []
    for index, destination in enumerate(destination_members):
        source = source_members[index % len(source_members)]
        pairs.append((source, destination))
    return pairs


@dataclass(frozen=True, slots=True)
class RebalanceCostModel:
    """Closed-form cost of moving categories between clusters.

    Mirrors the Section 6.1.3 example: moving ``n_categories`` categories
    of ``docs_per_category`` documents each, sized ``doc_size`` bytes with
    ``n_reps`` desired replicas, into a destination cluster of
    ``destination_size`` nodes.
    """

    n_categories: int
    docs_per_category: int
    doc_size: int
    n_reps: int
    destination_size: int
    total_nodes: int

    def __post_init__(self) -> None:
        if min(
            self.n_categories,
            self.docs_per_category,
            self.doc_size,
            self.n_reps,
            self.destination_size,
            self.total_nodes,
        ) <= 0:
            raise ValueError("all cost-model parameters must be positive")

    @property
    def bytes_per_category(self) -> int:
        """Total data moved per category (all replicas)."""
        return self.docs_per_category * self.doc_size * self.n_reps

    @property
    def transfers_per_category(self) -> int:
        """Pair transfers per category — one per destination node."""
        return self.destination_size

    @property
    def bytes_per_transfer(self) -> float:
        """Size of each pair transfer (the paper's 16 MB in the example)."""
        return self.bytes_per_category / self.destination_size

    @property
    def engaged_node_pairs(self) -> int:
        """Distinct (source, destination) pairs engaged across all moves."""
        return self.transfers_per_category * self.n_categories

    @property
    def engaged_fraction(self) -> float:
        """Share of all system nodes engaged in rebalancing transfers.

        The paper's example: 5,000 pairs over 200,000 nodes "masquerades as
        an increase of 2.5% on the active users".
        """
        return min(1.0, self.engaged_node_pairs / self.total_nodes)


def rebalance_cost(
    n_categories: int,
    docs_per_category: int,
    doc_size: int,
    n_reps: int,
    destination_size: int,
    total_nodes: int,
) -> RebalanceCostModel:
    """Convenience constructor for :class:`RebalanceCostModel`."""
    return RebalanceCostModel(
        n_categories=n_categories,
        docs_per_category=docs_per_category,
        doc_size=doc_size,
        n_reps=n_reps,
        destination_size=destination_size,
        total_nodes=total_nodes,
    )
