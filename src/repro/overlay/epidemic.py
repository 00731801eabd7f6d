"""Epidemic (anti-entropy) dissemination of metadata updates.

Step 5 of the lazy rebalancing protocol: "periodically, all the nodes in
the cluster send to their neighboring nodes updates to their metadata
information ... this epidemic-style protocol eventually guarantees that
all nodes of the cluster become aware of all metadata information
updates."  The peer-side exchange lives in
:meth:`repro.overlay.membership_protocol.MembershipProtocol.gossip_once`; this module provides the
convergence measurement used by the dynamics experiments and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.system import P2PSystem

__all__ = ["dcrt_convergence", "run_gossip_until_converged"]


@dataclass(frozen=True, slots=True)
class ConvergenceReport:
    """How far DCRT knowledge has spread."""

    n_peers: int
    #: fraction of (peer, category) pairs whose DCRT entry matches the
    #: authoritative assignment.
    agreement: float
    #: peers whose whole DCRT matches the authoritative assignment.
    fully_converged: int


def dcrt_convergence(system: "P2PSystem") -> ConvergenceReport:
    """Measure peers' DCRT agreement with the authoritative assignment."""
    peers = system.alive_peers()
    n_categories = system.n_categories
    truth = system.assignment.category_to_cluster
    if not peers or n_categories == 0:
        return ConvergenceReport(n_peers=len(peers), agreement=1.0, fully_converged=len(peers))
    matches = 0
    fully = 0
    for peer in peers:
        peer_matches = sum(
            1
            for category_id in range(n_categories)
            if peer.dcrt.cluster_of(category_id) == int(truth[category_id])
        )
        matches += peer_matches
        if peer_matches == n_categories:
            fully += 1
    return ConvergenceReport(
        n_peers=len(peers),
        agreement=matches / (len(peers) * n_categories),
        fully_converged=fully,
    )


def run_gossip_until_converged(
    system: "P2PSystem",
    max_rounds: int = 50,
    target_agreement: float = 1.0,
) -> tuple[int, ConvergenceReport]:
    """Run discrete gossip rounds until DCRTs agree with the assignment.

    Returns ``(rounds_used, final_report)``.  Used by tests and the
    dynamics experiment to show the epidemic phase actually converges
    (and how fast).
    """
    report = dcrt_convergence(system)
    rounds = 0
    while report.agreement < target_agreement and rounds < max_rounds:
        system.run_gossip_rounds(1)
        rounds += 1
        report = dcrt_convergence(system)
    return rounds, report
