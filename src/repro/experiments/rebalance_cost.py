"""T3 — the Section 6.1.3 rebalancing-cost example.

The paper's worked example: 200,000 nodes in 400 clusters of 500 nodes,
4 MB documents; MaxFair_Reassign moves 10 categories of 1,000 documents
each with 2 desired replicas:

* 8 GB of data per reassigned category (1000 * 4 MB * 2);
* broken into 500 pair transfers of 16 MB each;
* up to 5,000 node pairs engaged -> "an increase of 2.5% on the active
  users, engaged in small-to-medium-size data transfers of 16 MB each".

This experiment reproduces those numbers from the closed-form cost model
and then *executes* the lazy rebalancing protocol in the simulator at a
reduced scale, verifying that the observed per-pair transfer sizes are
small and the engaged-node fraction matches the model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.replication import build_world
from repro.experiments.common import DES_SCALE
from repro.metrics.report import format_kv
from repro.model.workload import make_query_workload
from repro.overlay.rebalance import rebalance_cost
from repro.overlay.system import P2PSystem

__all__ = ["RebalanceCostResult", "run", "format_result"]

MB = 1024 * 1024
GB = 1024 * MB


@dataclass(frozen=True, slots=True)
class RebalanceCostResult:
    # closed-form (paper example)
    bytes_per_category: int
    bytes_per_transfer: float
    engaged_pairs: int
    engaged_fraction: float
    # simulated execution
    sim_scale: float
    sim_moves: int
    sim_transfer_messages: int
    sim_transfer_bytes: int
    sim_mean_transfer_bytes: float
    sim_engaged_fraction: float


def run(scale: float = DES_SCALE, seed: int = 7) -> RebalanceCostResult:
    """Closed-form paper numbers plus a simulated forced reassignment."""

    model = rebalance_cost(
        n_categories=10,
        docs_per_category=1_000,
        doc_size=4 * MB,
        n_reps=2,
        destination_size=500,
        total_nodes=200_000,
    )

    # --- simulated execution ----------------------------------------
    instance, assignment, plan = build_world(scale=scale, seed=seed)
    system = P2PSystem(instance, assignment, plan=plan)

    # Drive a little traffic so hit counters are populated, then force a
    # few moves through the adaptation machinery with a tight threshold.
    system.run_workload(make_query_workload(instance, 2000, seed=seed + 1))
    before = system.network.stats
    bytes_before = before.bytes_by_kind.get("transfer_data", 0)
    msgs_before = before.by_kind.get("transfer_data", 0)

    from repro.overlay.adaptation import AdaptationConfig

    outcome = system.run_adaptation(
        round_id=1,
        config=AdaptationConfig(low_threshold=0.999, high_threshold=0.9995, max_moves=5),
    )
    after = system.network.stats
    transfer_bytes = after.bytes_by_kind.get("transfer_data", 0) - bytes_before
    transfer_msgs = after.by_kind.get("transfer_data", 0) - msgs_before
    engaged = min(1.0, 2 * transfer_msgs / max(1, len(instance.nodes)))

    return RebalanceCostResult(
        bytes_per_category=model.bytes_per_category,
        bytes_per_transfer=model.bytes_per_transfer,
        engaged_pairs=model.engaged_node_pairs,
        engaged_fraction=model.engaged_fraction,
        sim_scale=scale,
        sim_moves=len(outcome.moved_categories),
        sim_transfer_messages=transfer_msgs,
        sim_transfer_bytes=transfer_bytes,
        sim_mean_transfer_bytes=(
            transfer_bytes / transfer_msgs if transfer_msgs else 0.0
        ),
        sim_engaged_fraction=engaged,
    )


def format_result(result: RebalanceCostResult) -> str:
    rows = [
        ("bytes per reassigned category", f"{result.bytes_per_category / GB:.1f} GB (paper: 8 GB)"),
        ("bytes per pair transfer", f"{result.bytes_per_transfer / MB:.1f} MB (paper: 16 MB)"),
        ("engaged node pairs", f"{result.engaged_pairs} (paper: 5,000)"),
        ("engaged node fraction", f"{result.engaged_fraction:.3%} (paper: 2.5%)"),
        ("simulated scale", f"{result.sim_scale}"),
        ("simulated categories moved", f"{result.sim_moves}"),
        ("simulated transfer messages", f"{result.sim_transfer_messages}"),
        ("simulated bytes transferred", f"{result.sim_transfer_bytes / MB:.1f} MB"),
        ("simulated mean transfer size", f"{result.sim_mean_transfer_bytes / MB:.2f} MB"),
        ("simulated engaged fraction", f"{result.sim_engaged_fraction:.3%}"),
    ]
    return format_kv(rows, title="T3 — Section 6.1.3 rebalancing-cost example")
