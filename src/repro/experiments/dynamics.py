"""E3 — the full dynamics loop: flash crowd, adaptation, churn.

Section 6's claim: the additional machinery — leader election, the
four-phase adaptation, lazy rebalancing with move counters, epidemic
metadata dissemination, and the join/leave protocols — keeps inter-cluster
fairness near the thresholds *continuously* as content popularity and the
peer population change.

The scenario simulated here:

1. a balanced system serves normal traffic; a baseline adaptation round
   observes fairness and does nothing;
2. a flash crowd arrives — new hot documents (30% of the popularity mass,
   concentrated on 30% of categories) are published through the publish
   protocol;
3. adaptation rounds run after each observation period; the first round
   below the low threshold rebalances and the system re-stabilizes;
4. random node departures and fresh joins exercise the leave/join
   protocols; queries keep succeeding throughout;
5. epidemic gossip spreads the moved-category mappings to nodes outside
   the affected clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.replication import build_world
from repro.experiments.common import DES_SCALE
from repro.metrics.report import format_table
from repro.metrics.response import summarize_responses
from repro.model.workload import add_hot_documents, make_query_workload
from repro.overlay.adaptation import AdaptationConfig
from repro.overlay.epidemic import dcrt_convergence
from repro.overlay.peer import DocInfo
from repro.overlay.system import P2PSystem

__all__ = ["DynamicsRound", "DynamicsResult", "run", "format_result"]

QUERIES_PER_ROUND = 4000
ROUNDS_AFTER_CROWD = 3
# Adaptation thresholds: rebalance below LOW_THRESHOLD, until fairness
# reaches HIGH_THRESHOLD.
LOW_THRESHOLD = 0.90
HIGH_THRESHOLD = 0.92
# Graceful departures (capped at a tenth of the live peers) and fresh joins.
CHURN_LEAVES = 10
CHURN_JOINS = 5


@dataclass(frozen=True, slots=True)
class DynamicsRound:
    """One observation period + adaptation round."""

    label: str
    observed_fairness: float
    rebalanced: bool
    n_moves: int
    query_success_rate: float


@dataclass(frozen=True, slots=True)
class DynamicsResult:
    scale: float
    rounds: tuple[DynamicsRound, ...]
    final_dcrt_agreement: float
    departures: int
    joins: int


def run(scale: float = DES_SCALE, seed: int = 5) -> DynamicsResult:
    """Run the full dynamics scenario; returns the per-round trace."""
    instance, assignment, plan = build_world(scale=scale, seed=seed)
    system = P2PSystem(instance, assignment, plan=plan)
    config = AdaptationConfig(
        low_threshold=LOW_THRESHOLD, high_threshold=HIGH_THRESHOLD
    )
    rounds: list[DynamicsRound] = []

    def observe(label: str, round_id: int, workload_seed: int) -> None:
        system.reset_hit_counters()
        outcomes = system.run_workload(
            make_query_workload(instance, QUERIES_PER_ROUND, seed=workload_seed)
        )
        response = summarize_responses(outcomes)
        adaptation = system.run_adaptation(round_id=round_id, config=config)
        rounds.append(
            DynamicsRound(
                label=label,
                observed_fairness=adaptation.observed_fairness,
                rebalanced=adaptation.rebalanced,
                n_moves=len(adaptation.moved_categories),
                query_success_rate=response.success_rate,
            )
        )

    # 1. baseline
    observe("baseline", round_id=0, workload_seed=seed + 100)

    # 2. flash crowd: publish hot documents through the protocol
    perturbation = add_hot_documents(
        instance,
        mass_fraction=0.30,
        seed=seed + 1,
        category_subset_fraction=0.30,
    )
    owner_of = {}
    for node_id, node in instance.nodes.items():
        for doc_id in node.contributed_doc_ids:
            owner_of[doc_id] = node_id
    for doc_id in perturbation.new_doc_ids:
        doc = instance.documents[doc_id]
        publisher = system.peer(owner_of[doc_id])
        if publisher is not None:
            publisher.membership.publish_document(
                DocInfo(doc_id, doc.categories, doc.size_bytes)
            )
    system.sim.run()

    # 3. adaptation rounds until stable
    for index in range(ROUNDS_AFTER_CROWD):
        observe(
            f"post-crowd {index + 1}",
            round_id=index + 1,
            workload_seed=seed + 200 + index,
        )

    # 4. churn: graceful leaves and fresh joins
    alive = [peer.node_id for peer in system.alive_peers()]
    protocol_rng = system.rngs.stream("experiment-churn")
    leavers = [
        alive[int(i)]
        for i in protocol_rng.choice(
            len(alive), size=min(CHURN_LEAVES, len(alive) // 10), replace=False
        )
    ]
    for node_id in leavers:
        system.leave_node(node_id)
    next_id = max(instance.nodes) + 1
    for joiner in range(CHURN_JOINS):
        system.join_node(next_id + joiner, capacity_units=2.0)
    observe("post-churn", round_id=ROUNDS_AFTER_CROWD + 1,
            workload_seed=seed + 300)

    # 5. epidemic dissemination of the moved mappings
    system.run_gossip_rounds(5)
    convergence = dcrt_convergence(system)

    return DynamicsResult(
        scale=scale,
        rounds=tuple(rounds),
        final_dcrt_agreement=convergence.agreement,
        departures=len(leavers),
        joins=CHURN_JOINS,
    )


def format_result(result: DynamicsResult) -> str:
    rows = [
        (
            r.label,
            f"{r.observed_fairness:.4f}",
            "yes" if r.rebalanced else "no",
            r.n_moves,
            f"{r.query_success_rate:.4f}",
        )
        for r in result.rounds
    ]
    return format_table(
        ["period", "observed fairness", "rebalanced", "moves", "query success"],
        rows,
        title=(
            "E3 — dynamics under flash crowd and churn "
            f"({result.departures} leaves, {result.joins} joins; final DCRT "
            f"agreement {result.final_dcrt_agreement:.3f}), scale = {result.scale}"
        ),
    )
