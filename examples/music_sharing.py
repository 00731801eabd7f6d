"""Music file sharing — the paper's motivating application.

The paper's running example is an MP3-sharing community (4 MB documents,
music-chart popularities, genre categories like the "Heavy Metal" /
"Hard Rock" / "Pop" rows of Figure 1).  This example:

1. builds a community of peers contributing songs across genres;
2. balances genres over peer clusters with MaxFair;
3. places replicas per the Section 4.3.3 policy (top-chart songs on every
   cluster node);
4. boots a live simulated overlay and serves an afternoon of Zipf
   requests, reporting response hops and per-node load balance;
5. prints the per-node storage bill, mirroring the paper's 4.3.3 example.

Run:  python examples/music_sharing.py
"""

from repro import api
from repro.metrics.load import load_report
from repro.metrics.report import format_kv
from repro.metrics.response import summarize_responses

MB = 1024 * 1024

GENRES = [
    "Heavy Metal", "Hard Rock", "Pop", "Classic Rock", "Folk",
    "Ambient", "Electronica", "Jazz", "Blues", "Hip-Hop",
]


def main() -> None:
    # 1.-3. one facade call: the community (10k songs, 1k peers, genre
    # categories), the MaxFair placement, the Section 4.3.3 replication
    # plan, and the live overlay on top.
    system = api.build_system(scale=0.05, seed=11, n_reps=2, hot_mass=0.35)
    instance, assignment, plan = system.instance, system.assignment, system.plan
    for category in instance.categories:
        category.name = GENRES[category.category_id % len(GENRES)]
    print(
        f"Community: {len(instance.documents):,} songs, "
        f"{len(instance.nodes):,} peers, "
        f"{len(instance.categories)} genres, "
        f"{instance.n_clusters} clusters"
    )

    # 2. inter-cluster balancing.
    print("\nGenre placement (genre -> cluster):")
    for category in instance.categories[:8]:
        cluster = assignment.cluster_of(category.category_id)
        print(
            f"  {category.name:<14s} (popularity {category.popularity:.4f}, "
            f"{category.n_docs} songs) -> cluster {cluster}"
        )

    # 3. replication: chart-toppers (35% of the listening mass) everywhere.
    print(
        f"\nReplication: {len(plan.hot_doc_ids)} chart-toppers "
        f"({len(plan.hot_doc_ids) / len(instance.documents):.1%} of songs) "
        "replicated on every cluster node"
    )
    print(
        format_kv(
            [
                ("mean storage per peer", f"{plan.mean_node_bytes() / MB:.1f} MB"),
                ("max storage per peer", f"{plan.max_node_bytes() / MB:.1f} MB"),
            ]
        )
    )

    # 4. a simulated afternoon of requests.
    workload = api.make_query_workload(instance, 8000, seed=13)
    outcomes = system.run_workload(workload)
    response = summarize_responses(outcomes)
    print("\nServing 8,000 requests:")
    print(format_kv(response.rows()))

    contributors = set(instance.node_categories)
    loads = {
        node_id: load
        for node_id, load in system.node_loads().items()
        if node_id in contributors
    }
    memberships = {
        node_id: set(peer.memberships) for node_id, peer in system.peers.items()
    }
    card = load_report(loads, system.node_capacities(), memberships)
    print("\nLoad distribution over contributing peers:")
    print(format_kv(card.rows()))


if __name__ == "__main__":
    main()
