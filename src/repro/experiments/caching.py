"""X2 — requester-side caching (future-work item viii).

The paper's future-work list asks for "cache placement and replacement
algorithms that can complement our architecture".  We add the natural
P2P cache: a peer that retrieves a document keeps it (LRU, bounded
capacity) and registers as a holder, so future requests for hot content
can be served from caches instead of always hitting the placed replicas.

This experiment sweeps the per-node cache capacity and measures, under a
Zipf request stream over an overlay *without* hot-mass replication (so the
cache is the only hot-content spreading mechanism):

* load fairness across nodes (caches absorb the hot documents' load):
  Jain's index of raw served counts, and of served load per capacity
  unit — the paper's measure (Section 4.3.1) and the figure of merit,
  since capacity-weighted dispatch makes raw counts follow capacity;
* the hottest node's share of all requests;
* the fraction of requests served out of caches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fairness import jain_fairness
from repro.core.replication import build_world
from repro.experiments.common import DES_SCALE
from repro.metrics.load import load_report
from repro.metrics.report import format_table
from repro.model.workload import make_query_workload
from repro.overlay.system import P2PSystem, P2PSystemConfig

__all__ = ["CacheRow", "CachingResult", "run", "format_result"]

CACHE_CAPACITIES = (0, 4, 16, 64)
N_QUERIES = 6000


@dataclass(frozen=True, slots=True)
class CacheRow:
    capacity: int
    load_fairness: float
    #: Jain's index of requests served per capacity unit.
    load_fairness_per_unit: float
    hottest_share: float
    cached_copies: int


@dataclass(frozen=True, slots=True)
class CachingResult:
    scale: float
    n_queries: int
    rows: tuple[CacheRow, ...]


def run(scale: float = DES_SCALE, seed: int = 7) -> CachingResult:
    """Sweep the cache capacity under a fixed Zipf workload."""
    # No hot-mass replication: caching is the only hot-content spreader.
    instance, assignment, plan = build_world(scale=scale, seed=seed, hot_mass=0.0)
    workload = make_query_workload(instance, N_QUERIES, seed=seed + 1)

    rows = []
    for capacity in CACHE_CAPACITIES:
        system = P2PSystem(
            instance,
            assignment,
            plan=plan,
            config=P2PSystemConfig(cache_capacity=capacity, seed=1),
        )
        system.run_workload(workload)
        loads = system.node_loads()
        values = np.array(list(loads.values()), dtype=float)
        total = values.sum() if values.size else 0.0
        cached_copies = sum(
            peer.cache_stats()["size"] for peer in system.alive_peers()
        )
        rows.append(
            CacheRow(
                capacity=capacity,
                load_fairness=float(jain_fairness(values)),
                load_fairness_per_unit=load_report(
                    loads, system.node_capacities()
                ).node_fairness_normalized,
                # values.max() on an empty array throws — a world whose
                # peers all died must report share 0, not crash.
                hottest_share=(
                    float(values.max() / total) if values.size and total > 0
                    else 0.0
                ),
                cached_copies=cached_copies,
            )
        )
    return CachingResult(scale=scale, n_queries=N_QUERIES, rows=tuple(rows))


def format_result(result: CachingResult) -> str:
    rows = [
        (
            row.capacity,
            f"{row.load_fairness:.4f}",
            f"{row.load_fairness_per_unit:.4f}",
            f"{row.hottest_share:.3%}",
            row.cached_copies,
        )
        for row in result.rows
    ]
    return format_table(
        ["cache capacity (docs)", "load fairness", "load fairness / unit",
         "hottest node share", "cached copies held"],
        rows,
        title=(
            "X2 — requester-side caching (future-work item viii; "
            f"{result.n_queries} Zipf queries, no hot-mass replication), "
            f"scale = {result.scale}"
        ),
    )
