"""The four-phase adaptation mechanism (Section 6.1.2).

Orchestrates one full adaptation round over a live
:class:`repro.overlay.system.P2PSystem`:

* **Phase 0** (Section 6.1.1): capability gossip rounds followed by leader
  election — each cluster's most capable known-live node becomes leader.
* **Phase 1** — per-cluster monitoring: each leader floods a hit-counter
  request over its cluster graph; counters aggregate back up the
  on-the-fly tree.
* **Phase 2** — leader communication: leaders exchange per-cluster load
  reports so "all communicating leaders know the current load distribution
  among their clusters".
* **Phase 3** — fairness evaluation: the leader of the hottest cluster
  computes the fairness index over normalized cluster loads; if it is at
  or above the low threshold, nothing more happens.
* **Phase 4** — rebalancing: that leader runs MaxFair_Reassign over the
  *observed* category statistics and broadcasts reassign notices carrying
  bumped move counters and node pairings; the lazy transfer protocol then
  runs in the simulation.

All inter-node information flow is charged to the simulated network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.core.fairness import jain_fairness
from repro.core.maxfair import Assignment
from repro.core.popularity import CategoryStats
from repro.core.reassign import ReassignResult, maxfair_reassign_from_stats
from repro.overlay import messages as m
from repro.overlay.rebalance import pair_nodes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.system import P2PSystem

__all__ = [
    "AdaptationConfig",
    "AdaptationOutcome",
    "AdaptationCoordinator",
    "plan_category_move",
    "broadcast_notice",
]


def plan_category_move(
    system: "P2PSystem",
    category_id: int,
    source_cluster: int,
    target_cluster: int,
) -> m.ReassignNotice:
    """Build the Phase-4 :class:`~repro.overlay.messages.ReassignNotice`.

    Pairs live source-cluster nodes with live destination-cluster nodes,
    partitions the category's document set over the holders (so each
    replicated document travels once), and bumps the move counter past the
    authoritative assignment's.  Shared between
    :meth:`AdaptationCoordinator.rebalance` and the chaos harness's forced
    moves, so both exercise the same transfer protocol.
    """
    source_members = sorted(
        peer.node_id for peer in system.peers_in_cluster(source_cluster)
    )
    destination_members = sorted(
        peer.node_id for peer in system.peers_in_cluster(target_cluster)
    )
    holders = [
        node_id
        for node_id in source_members
        if system.peer(node_id) is not None
        and system.peer(node_id).dt.docs_in_category(category_id)
    ]
    pairs = tuple(pair_nodes(holders or source_members, destination_members))
    # Partition the category's documents over the holders using the
    # coordinator's cluster metadata, so replicated (hot) documents
    # travel once instead of once per holder.
    designated: dict[int, list[int]] = {}
    for holder_id in holders:
        designated[holder_id] = []
    doc_union = sorted(
        {
            doc_id
            for holder_id in holders
            for doc_id in system.peer(holder_id).dt.docs_in_category(category_id)
        }
    )
    for position, doc_id in enumerate(doc_union):
        doc_holders = [
            holder_id
            for holder_id in holders
            if system.peer(holder_id).dt.has_document(doc_id)
        ]
        if doc_holders:
            designated[doc_holders[position % len(doc_holders)]].append(doc_id)
    source_docs = tuple(
        (holder_id, tuple(doc_ids))
        for holder_id, doc_ids in sorted(designated.items())
    )
    move_counter = int(system.assignment.move_counters[category_id]) + 1
    # With durability armed every move claims a fresh ownership epoch, so
    # replayed or partition-stale notices are fenced out at the peers.
    epoch = (
        system.recovery.next_ownership_epoch(category_id)
        if system.recovery is not None
        else 0
    )
    return m.ReassignNotice(
        category_id=category_id,
        source_cluster=source_cluster,
        target_cluster=target_cluster,
        move_counter=move_counter,
        transfer_pairs=pairs,
        source_docs=source_docs,
        epoch=epoch,
    )


def broadcast_notice(
    system: "P2PSystem", notice: m.ReassignNotice, coordinator_id: int
) -> None:
    """Step 1 of the lazy protocol: both clusters learn the new mapping.

    Sends the notice from ``coordinator_id`` to every live member of the
    source and destination clusters, then records the move in the system's
    authoritative assignment view.  Does *not* run the simulation — the
    caller decides when the notices (and the transfers they trigger) land.
    """
    source_members = {
        peer.node_id for peer in system.peers_in_cluster(notice.source_cluster)
    }
    destination_members = {
        peer.node_id for peer in system.peers_in_cluster(notice.target_cluster)
    }
    # Route through the coordinator peer's send path so the notices get
    # ack/retry protection when reliability is enabled; fall back to the
    # raw network if the coordinator is gone (chaos-induced).
    coordinator = system.peer(coordinator_id)
    for node_id in source_members | destination_members:
        if coordinator is not None:
            coordinator._send(node_id, "reassign_notice", notice)
        else:
            system.network.transmit(
                coordinator_id, node_id, "reassign_notice", notice
            )
    system.apply_reassignment(
        notice.category_id, notice.target_cluster, epoch=notice.epoch
    )


#: capability-announce floods before Phase 0 applies the election rule.
_CAPABILITY_GOSSIP_ROUNDS = 3


@dataclass(frozen=True, slots=True)
class AdaptationConfig:
    """Thresholds and knobs of the adaptation mechanism.

    The defaults are the paper's Section 6.4 values: rebalancing triggers
    below the low threshold (83%) and runs until fairness reaches the
    upper threshold (92%).
    """

    low_threshold: float = 0.83
    high_threshold: float = 0.92
    max_moves: int = 50

    def __post_init__(self) -> None:
        if not 0.0 < self.low_threshold <= self.high_threshold <= 1.0:
            raise ValueError(
                "thresholds must satisfy 0 < low <= high <= 1, got "
                f"low={self.low_threshold}, high={self.high_threshold}"
            )


@dataclass(slots=True)
class AdaptationOutcome:
    """What one adaptation round observed and did."""

    round_id: int
    leaders: dict[int, int]
    observed_fairness: float
    rebalanced: bool
    reassign_result: ReassignResult | None = None
    moved_categories: list[int] = field(default_factory=list)
    #: network bytes attributable to the round (control + transfers).
    bytes_before: int = 0
    bytes_after: int = 0

    @property
    def bytes_used(self) -> int:
        return self.bytes_after - self.bytes_before


class AdaptationCoordinator:
    """Runs adaptation rounds against a live :class:`P2PSystem`."""

    def __init__(self, system: "P2PSystem", config: AdaptationConfig | None = None):
        self.system = system
        self.config = config if config is not None else AdaptationConfig()

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def elect_leaders(self) -> dict[int, int]:
        """Phase 0: capability gossip, then the election rule per cluster."""
        system = self.system
        for _ in range(_CAPABILITY_GOSSIP_ROUNDS):
            for peer in system.alive_peers():
                peer.adaptation.announce_capabilities()
            system.sim.run()
        alive = {peer.node_id for peer in system.alive_peers()}
        leaders: dict[int, int] = {}
        for peer in system.alive_peers():
            peer.adaptation.elect_leaders(alive=alive)
        # A cluster's leader is what its members believe; with converged
        # gossip all members agree (the paper tolerates disagreement —
        # take any member's belief, preferring the claimed leader's own).
        for cluster_id in range(system.assignment.n_clusters):
            beliefs = [
                peer.believed_leader.get(cluster_id)
                for peer in system.peers_in_cluster(cluster_id)
                if peer.believed_leader.get(cluster_id) is not None
            ]
            if beliefs:
                # Majority belief (deterministic tie-break on node id).
                values, counts = np.unique(np.array(beliefs), return_counts=True)
                leaders[cluster_id] = int(values[int(np.argmax(counts))])
        return leaders

    def monitor(self, leaders: dict[int, int], round_id: int) -> set[int]:
        """Phase 1: every leader aggregates its cluster's hit counters;
        returns the clusters whose leader rooted a round."""
        system = self.system
        rooted: set[int] = set()
        for cluster_id, leader_id in sorted(leaders.items()):
            leader = system.peer(leader_id)
            if leader is None or cluster_id not in leader.memberships:
                continue
            leader.adaptation.start_monitoring(cluster_id, round_id)
            rooted.add(cluster_id)
        system.sim.run()
        return rooted

    def exchange_reports(
        self, leaders: dict[int, int], round_id: int, rooted: set[int]
    ) -> dict[int, m.LoadReport]:
        """Phase 2: leaders multicast the figures their roots aggregated."""
        system = self.system
        reports: dict[int, m.LoadReport] = {}
        for cluster_id, leader_id in sorted(leaders.items()):
            leader = system.peer(leader_id)
            # Only a root ``monitor`` started is read: a leader it skipped
            # may still hold an older round under a reused round id.
            counts, weights, subtree = (
                leader.adaptation.monitoring_result(cluster_id, round_id)
                if cluster_id in rooted else ({}, {}, 0)
            )
            capacity = sum(
                peer.capacity_units for peer in system.peers_in_cluster(cluster_id)
            )
            report = m.LoadReport(
                round_id=round_id,
                cluster_id=cluster_id,
                leader_id=leader_id,
                category_hits=tuple(sorted(counts.items())),
                category_weights=tuple(sorted(weights.items())),
                capacity_units=capacity,
                n_members=max(subtree, 1),
            )
            reports[cluster_id] = report
            if leader is not None:
                for other_cluster, other_leader in leaders.items():
                    if other_cluster != cluster_id:
                        system.network.transmit(
                            leader_id,
                            other_leader,
                            "load_report",
                            report,
                            size_bytes=2 * m.CONTROL_SIZE,
                        )
        system.sim.run()
        return reports

    def evaluate_fairness(self, reports: dict[int, m.LoadReport]) -> float:
        """Phase 3: fairness of the observed normalized cluster loads.

        Normalizes each cluster's hits by the aggregated per-category
        capacity weights — the same denominator Phase 4 optimizes, so the
        evaluation and the reassigner agree on what "balanced" means.
        """
        n_clusters = self.system.assignment.n_clusters
        values = np.zeros(n_clusters)
        for cluster_id, report in reports.items():
            hits = sum(count for _cat, count in report.category_hits)
            weight = sum(w for _cat, w in report.category_weights)
            if weight > 0:
                values[cluster_id] = hits / weight
        return jain_fairness(values)

    def build_observed_stats(
        self, reports: dict[int, m.LoadReport]
    ) -> tuple[CategoryStats, Assignment]:
        """Turn the leaders' reports into MaxFair_Reassign inputs.

        Popularity estimates are the per-category hit counts; per-category
        capacity weights are the members' hit-proportional capacity splits
        aggregated in Phase 1.  The assignment view is "category s is
        served by the cluster that reported hits for it", falling back to
        the system's authoritative mapping for silent categories.
        """
        n_categories = self.system.n_categories
        popularity = np.zeros(n_categories)
        weights = np.zeros(n_categories)
        mapping = self.system.assignment.category_to_cluster.copy()
        for cluster_id, report in reports.items():
            for category_id, hits in report.category_hits:
                popularity[category_id] += hits
                mapping[category_id] = cluster_id
            for category_id, weight in report.category_weights:
                weights[category_id] += weight
        # Categories with no observed traffic keep a nominal weight so they
        # do not look infinitely attractive to the reassigner.
        weights[weights <= 0] = weights[weights > 0].min() if np.any(weights > 0) else 1.0
        stats = CategoryStats(popularity=popularity, storage_weight=weights)
        assignment = Assignment(
            category_to_cluster=mapping,
            n_clusters=self.system.assignment.n_clusters,
            move_counters=self.system.assignment.move_counters.copy(),
        )
        return stats, assignment

    def rebalance(
        self,
        leaders: dict[int, int],
        reports: dict[int, m.LoadReport],
        round_id: int,
    ) -> ReassignResult:
        """Phase 4: run MaxFair_Reassign and broadcast the notices."""
        system = self.system
        stats, assignment = self.build_observed_stats(reports)
        result = maxfair_reassign_from_stats(
            stats,
            assignment,
            fairness_threshold=self.config.high_threshold,
            max_moves=self.config.max_moves,
        )
        for move in result.moves:
            if obs.TRACE.enabled:
                obs.TRACE.emit(
                    "rebalance_move",
                    t=system.sim.now,
                    round=round_id,
                    category=move.category_id,
                    source=move.source_cluster,
                    target=move.target_cluster,
                )
            notice = plan_category_move(
                system, move.category_id, move.source_cluster, move.target_cluster
            )
            coordinator = leaders.get(move.source_cluster)
            if coordinator is None:
                coordinator = next(iter(leaders.values()))
            broadcast_notice(system, notice, coordinator)
        system.sim.run()
        return result

    # ------------------------------------------------------------------
    # the whole round
    # ------------------------------------------------------------------
    def _enter_phase(self, round_id: int, phase: str) -> obs.Timer:
        """Trace the phase transition; time the phase's wall-clock cost."""
        if obs.TRACE.enabled:
            obs.TRACE.emit(
                "adapt_phase",
                t=self.system.sim.now,
                round=round_id,
                phase=phase,
            )
        return obs.Timer(obs.histogram(f"adapt.phase.{phase}_s"))

    def run_round(self, round_id: int = 0) -> AdaptationOutcome:
        """Run Phases 0-4; rebalancing only happens below the low threshold."""
        system = self.system
        bytes_before = system.network.stats.bytes_sent
        obs.counter("adapt.rounds").inc()
        with self._enter_phase(round_id, "elect"):
            leaders = self.elect_leaders()
        with self._enter_phase(round_id, "monitor"):
            rooted = self.monitor(leaders, round_id)
        with self._enter_phase(round_id, "exchange"):
            reports = self.exchange_reports(leaders, round_id, rooted)
        with self._enter_phase(round_id, "evaluate"):
            fairness = self.evaluate_fairness(reports)
        obs.gauge("adapt.observed_fairness").set(fairness)
        outcome = AdaptationOutcome(
            round_id=round_id,
            leaders=leaders,
            observed_fairness=fairness,
            rebalanced=False,
            bytes_before=bytes_before,
        )
        if fairness < self.config.low_threshold and leaders:
            with self._enter_phase(round_id, "rebalance"):
                result = self.rebalance(leaders, reports, round_id)
            outcome.rebalanced = True
            outcome.reassign_result = result
            outcome.moved_categories = [move.category_id for move in result.moves]
            obs.counter("adapt.rebalance_rounds").inc()
            obs.counter("adapt.category_moves").inc(len(result.moves))
        outcome.bytes_after = system.network.stats.bytes_sent
        obs.counter("adapt.bytes_used").inc(outcome.bytes_used)
        return outcome
