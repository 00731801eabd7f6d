"""Pure P2P vs hybrid: replicated metadata and super peers, side by side.

Section 3 of the paper leaves the "pure vs hybrid P2P" debate open and
sketches both readings of its architecture:

* **hybrid** — cluster metadata lives at super peers; other members route
  document lookups through them (one extra hop, concentrated directory
  load);
* **replicated metadata** — every node can locate holders (the default in
  this library).

This example runs the same content through both and compares hop counts
and the directory-load concentration.

Run:  python examples/pure_p2p_search.py
"""

import numpy as np

from repro import api
from repro.metrics.report import format_table
from repro.metrics.response import summarize_responses


def main() -> None:
    # Sparse placement (one replica, no hot set) so search actually has to
    # look: with the paper's hot replication most lookups are trivial.
    instance, assignment, plan = api.build_world(
        scale=0.02, seed=61, n_reps=1, hot_mass=0.0
    )
    workload = api.make_query_workload(instance, 3000, seed=62)
    rows = []

    for mode in ("replicated", "super_peer"):
        system = api.P2PSystem(
            instance,
            assignment,
            plan=plan,
            config=api.P2PSystemConfig(metadata_mode=mode, seed=1),
        )
        outcomes = system.run_workload(workload)
        stats = summarize_responses(outcomes)
        routed = np.array(
            [peer.queries_routed for peer in system.alive_peers()], dtype=float
        )
        top_router_share = routed.max() / routed.sum() if routed.sum() else 0.0
        rows.append(
            (
                mode,
                f"{stats.success_rate:.3f}",
                f"{stats.mean_hops:.2f}",
                stats.max_hops,
                f"{top_router_share:.2%}",
            )
        )

    print(
        format_table(
            ["search mechanism", "success", "mean hops", "max hops",
             "top router share"],
            rows,
            title="Pure vs hybrid P2P search over the same content",
        )
    )


if __name__ == "__main__":
    main()
