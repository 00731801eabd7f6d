"""E1 — the clustered architecture vs Chord, Gnutella, and a central index.

The paper's architectural claims (Sections 1-3):

* overlay DHTs balance load "in a rather naive way simply by resorting to
  the uniformity of the hash function" — so under Zipf popularity their
  node-load fairness collapses;
* Gnutella/Freenet-style flooding "might face serious difficulties ...
  ensuring low response times", and burdens users with hop-count choices;
* central indices are bottlenecks;
* the proposed architecture answers "within only a few hops for the
  common case" with bounded worst-case hops and balanced load.

This experiment runs the *same* document population and Zipf query stream
through all four systems and prints one table of: success rate, mean/max
hops, node-load fairness (of raw request counts, and of load per capacity
unit — the paper's measure, Section 4.3.1), and the hottest node's share
of total load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fairness import jain_fairness
from repro.core.replication import build_world
from repro.experiments.common import DES_SCALE
from repro.baselines import ChordNetwork, GnutellaNetwork, HybridIndexNetwork
from repro.metrics.report import format_table
from repro.metrics.response import summarize_responses
from repro.model.workload import make_query_workload
from repro.overlay.system import P2PSystem
from repro.sim.rng import RngRegistry

__all__ = ["SystemRow", "ComparisonResult", "run", "format_result"]

N_QUERIES = 5000


@dataclass(frozen=True, slots=True)
class SystemRow:
    """One system's measurements under the shared workload."""

    name: str
    success_rate: float
    mean_hops: float
    max_hops: int
    #: Jain's index of raw request counts.
    load_fairness: float
    #: Jain's index of requests per capacity unit: the paper's measure.
    load_fairness_per_unit: float
    hottest_share: float


@dataclass(frozen=True, slots=True)
class SearchStrategyRow:
    """One unstructured-search mechanism's cost/quality trade-off."""

    strategy: str
    success_rate: float
    mean_hops: float
    mean_messages: float


@dataclass(frozen=True, slots=True)
class ComparisonResult:
    scale: float
    n_queries: int
    rows: tuple[SystemRow, ...]
    #: E1a: flood vs iterative deepening vs random walks — the [7]
    #: improvements the paper notes apply to its architecture too.
    search_rows: tuple[SearchStrategyRow, ...] = ()


def _load_summary(
    loads: dict[int, int], capacities: dict[int, float]
) -> tuple[float, float, float]:
    """``(fairness, fairness per capacity unit, hottest share)`` of
    ``loads``; a node with no capacity of its own (the central index's
    directory) counts as one unit."""
    values = np.array(list(loads.values()), dtype=np.float64)
    units = np.array([capacities.get(n, 1.0) for n in loads], dtype=np.float64)
    total = values.sum()
    fairness = jain_fairness(values) if len(values) else 1.0
    per_unit = jain_fairness(values / units) if len(values) else 1.0
    hottest = float(values.max() / total) if total > 0 else 0.0
    return fairness, per_unit, hottest


def run(scale: float = DES_SCALE, seed: int = 7) -> ComparisonResult:
    """Run the four systems on one instance and one query stream."""
    rngs = RngRegistry(root_seed=seed)
    instance, assignment, plan = build_world(scale=scale, seed=seed)
    workload = make_query_workload(instance, N_QUERIES, seed=seed + 1)
    doc_stream = [q.target_doc_id for q in workload]
    contributors = set(instance.node_categories)
    capacities = {n: node.capacity_units for n, node in instance.nodes.items()}
    rows = []

    # --- the paper's clustered architecture --------------------------
    system = P2PSystem(instance, assignment, plan=plan)
    outcomes = system.run_workload(workload)
    response = summarize_responses(outcomes)
    loads = {
        node_id: load
        for node_id, load in system.node_loads().items()
        if node_id in contributors
    }
    fairness, per_unit, hottest = _load_summary(loads, capacities)
    rows.append(
        SystemRow(
            name="clustered (paper)",
            success_rate=response.success_rate,
            mean_hops=response.mean_hops,
            max_hops=response.max_hops,
            load_fairness=fairness,
            load_fairness_per_unit=per_unit,
            hottest_share=hottest,
        )
    )

    # --- the same architecture in super-peer (hybrid) mode -------------
    from repro.overlay.system import P2PSystemConfig

    super_system = P2PSystem(
        instance,
        assignment,
        plan=plan,
        config=P2PSystemConfig(metadata_mode="super_peer", seed=seed),
    )
    super_outcomes = super_system.run_workload(workload)
    super_response = summarize_responses(super_outcomes)
    super_loads = {
        node_id: load
        for node_id, load in super_system.node_loads().items()
        if node_id in contributors
    }
    fairness, per_unit, hottest = _load_summary(super_loads, capacities)
    rows.append(
        SystemRow(
            name="clustered (super-peer)",
            success_rate=super_response.success_rate,
            mean_hops=super_response.mean_hops,
            max_hops=super_response.max_hops,
            load_fairness=fairness,
            load_fairness_per_unit=per_unit,
            hottest_share=hottest,
        )
    )

    # --- Chord --------------------------------------------------------
    chord = ChordNetwork(sorted(instance.nodes), bits=24)
    chord.store_all(sorted(instance.documents))
    chord_hops, chord_loads = chord.run_queries(doc_stream, rngs.stream("chord"))
    fairness, per_unit, hottest = _load_summary(chord_loads, capacities)
    rows.append(
        SystemRow(
            name="chord (DHT)",
            success_rate=1.0,  # structured lookups always terminate
            mean_hops=float(chord_hops.mean()),
            max_hops=int(chord_hops.max()),
            load_fairness=fairness,
            load_fairness_per_unit=per_unit,
            hottest_share=hottest,
        )
    )

    # --- Gnutella -------------------------------------------------------
    gnutella = GnutellaNetwork(
        sorted(instance.nodes), rngs.stream("gnutella-topology"), degree=4
    )
    for node_id, node in instance.nodes.items():
        for doc_id in node.contributed_doc_ids:
            gnutella.place_document(doc_id, (node_id,))
    flood_results, gnutella_loads = gnutella.run_queries(
        doc_stream, rngs.stream("gnutella"), ttl=7
    )
    found = [r for r in flood_results if r.found]
    fairness, per_unit, hottest = _load_summary(gnutella_loads, capacities)
    rows.append(
        SystemRow(
            name="gnutella (flood)",
            success_rate=len(found) / len(flood_results),
            mean_hops=float(np.mean([r.hops for r in found])) if found else 0.0,
            max_hops=max((r.hops for r in found), default=0),
            load_fairness=fairness,
            load_fairness_per_unit=per_unit,
            hottest_share=hottest,
        )
    )

    # --- E1a: unstructured search strategy variants ([7]) --------------
    search_rows = []
    for strategy in ("flood", "iterative_deepening", "random_walk"):
        strategy_results, _loads = gnutella.run_queries(
            doc_stream[:2000],
            rngs.stream(f"gnutella-{strategy}"),
            ttl=7,
            strategy=strategy,
        )
        found_s = [r for r in strategy_results if r.found]
        search_rows.append(
            SearchStrategyRow(
                strategy=strategy,
                success_rate=len(found_s) / len(strategy_results),
                mean_hops=float(np.mean([r.hops for r in found_s])) if found_s else 0.0,
                mean_messages=float(
                    np.mean([r.messages for r in strategy_results])
                ),
            )
        )

    # --- central index -------------------------------------------------
    hybrid = HybridIndexNetwork(sorted(instance.nodes))
    for node_id, node in instance.nodes.items():
        for doc_id in node.contributed_doc_ids:
            hybrid.place_document(doc_id, (node_id,))
    hybrid_results, hybrid_loads = hybrid.run_queries(
        doc_stream, rngs.stream("hybrid")
    )
    # Fold the directory itself into the load picture — it serves every
    # query, which is precisely the bottleneck being illustrated.
    hybrid_loads = dict(hybrid_loads)
    hybrid_loads[hybrid.directory_id] = hybrid.directory_load
    found_h = [r for r in hybrid_results if r.found]
    fairness, per_unit, hottest = _load_summary(hybrid_loads, capacities)
    rows.append(
        SystemRow(
            name="central index",
            success_rate=len(found_h) / len(hybrid_results),
            mean_hops=float(np.mean([r.hops for r in found_h])) if found_h else 0.0,
            max_hops=max((r.hops for r in found_h), default=0),
            load_fairness=fairness,
            load_fairness_per_unit=per_unit,
            hottest_share=hottest,
        )
    )

    return ComparisonResult(
        scale=scale,
        n_queries=N_QUERIES,
        rows=tuple(rows),
        search_rows=tuple(search_rows),
    )


def format_result(result: ComparisonResult) -> str:
    rows = [
        (
            row.name,
            f"{row.success_rate:.3f}",
            f"{row.mean_hops:.2f}",
            row.max_hops,
            f"{row.load_fairness:.3f}",
            f"{row.load_fairness_per_unit:.3f}",
            f"{row.hottest_share:.3%}",
        )
        for row in result.rows
    ]
    parts = [
        format_table(
            [
                "system", "success", "mean hops", "max hops", "load fairness",
                "load fairness / unit", "hottest node share",
            ],
            rows,
            title=(
                f"E1 — architecture comparison ({result.n_queries} Zipf queries, "
                f"scale = {result.scale})"
            ),
        )
    ]
    if result.search_rows:
        parts.append(
            format_table(
                ["strategy", "success", "mean hops", "mean messages/query"],
                [
                    (
                        row.strategy,
                        f"{row.success_rate:.3f}",
                        f"{row.mean_hops:.2f}",
                        f"{row.mean_messages:.1f}",
                    )
                    for row in result.search_rows
                ],
                title="E1a — unstructured search mechanisms ([7])",
            )
        )
    return "\n\n".join(parts)
