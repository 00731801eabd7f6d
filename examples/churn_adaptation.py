"""Surviving a flash crowd: the Section 6 dynamics machinery, live.

A balanced community gets hit by a flash crowd — newly published content
that instantly owns a third of all request traffic, concentrated on a few
categories.  This example walks through what the paper's adaptation
machinery does about it:

1. leaders are elected per cluster (most capable node, Section 6.1.1);
2. hit counters aggregate up the on-the-fly cluster trees (Phase 1);
3. leaders exchange load reports (Phase 2) and evaluate fairness (Phase 3);
4. when fairness falls below the low threshold, MaxFair_Reassign moves a
   handful of categories and the lazy protocol transfers their documents
   in small node-to-node pieces (Phase 4);
5. meanwhile peers leave and join, and epidemic gossip keeps every node's
   DCRT converging to the new category map.

Run:  python examples/churn_adaptation.py
"""

from repro import api
from repro.metrics.report import format_table
from repro.metrics.response import summarize_responses
from repro.model.workload import add_hot_documents
from repro.overlay.adaptation import AdaptationConfig
from repro.overlay.epidemic import dcrt_convergence
from repro.overlay.peer import DocInfo

MB = 1024 * 1024


def main() -> None:
    system = api.build_system(scale=0.05, seed=5, n_reps=2, hot_mass=0.35)
    instance = system.instance
    config = AdaptationConfig(low_threshold=0.90, high_threshold=0.92)
    rows = []

    def observe(label: str, round_id: int, seed: int) -> None:
        system.reset_hit_counters()
        outcomes = system.run_workload(
            api.make_query_workload(instance, 4000, seed=seed)
        )
        response = summarize_responses(outcomes)
        outcome = system.run_adaptation(round_id=round_id, config=config)
        moves = len(outcome.moved_categories)
        rows.append(
            (
                label,
                f"{outcome.observed_fairness:.4f}",
                "yes" if outcome.rebalanced else "no",
                moves,
                f"{response.success_rate:.3f}",
                f"{outcome.bytes_used / MB:.0f} MB",
            )
        )

    print("Phase A: balanced operation")
    observe("baseline", 0, seed=100)

    print("Phase B: flash crowd arrives (30% of traffic, 30% of categories)")
    crowd = add_hot_documents(
        instance, mass_fraction=0.30, seed=3, category_subset_fraction=0.30
    )
    owner_of = {
        doc_id: node_id
        for node_id, node in instance.nodes.items()
        for doc_id in node.contributed_doc_ids
    }
    for doc_id in crowd.new_doc_ids:
        doc = instance.documents[doc_id]
        publisher = system.peer(owner_of[doc_id])
        if publisher is not None:
            publisher.membership.publish_document(DocInfo(doc_id, doc.categories, doc.size_bytes))
    system.sim.run()
    print(f"  {len(crowd.new_doc_ids)} hot documents published")

    print("Phase C: adaptation rounds")
    for round_id in (1, 2, 3):
        observe(f"post-crowd {round_id}", round_id, seed=100 + round_id)

    print("Phase D: churn (15 leaves, 8 joins)")
    leavers = [p.node_id for p in system.alive_peers()[:15]]
    for node_id in leavers:
        system.leave_node(node_id)
    next_id = max(instance.nodes) + 1
    for i in range(8):
        system.join_node(next_id + i, capacity_units=2.0)
    observe("post-churn", 4, seed=200)

    print("Phase E: epidemic metadata dissemination")
    system.run_gossip_rounds(5)
    convergence = dcrt_convergence(system)

    print()
    print(
        format_table(
            ["period", "observed fairness", "rebalanced", "moves",
             "query success", "round traffic"],
            rows,
            title="Adaptation timeline",
        )
    )
    print(
        f"\nfinal DCRT agreement across {convergence.n_peers} peers: "
        f"{convergence.agreement:.3f} "
        f"({convergence.fully_converged} fully converged)"
    )


if __name__ == "__main__":
    main()
