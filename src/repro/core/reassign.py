"""The MaxFair_Reassign rebalancing algorithm (Section 6.1.2, Phase 4).

When the adaptation machinery detects that the fairness index has fallen
below the low threshold, the leader with the highest normalized popularity
runs MaxFair_Reassign:

    while fairness < threshold and moves < max_moves:
        1. find the cluster c_i with the highest normalized popularity
        2. for every category s of c_i, for every other cluster c_j:
           dummy-reassign s -> c_j, recompute fairness, remember the best
        3. actually reassign the best (s, c_m)
        4. update normalized popularities and the fairness value
        5. moves += 1

The algorithm is greedy (maximum fairness gain per move) and deliberately
moves *few* categories, because each move triggers the lazy data-transfer
protocol.  This module performs only the metadata-level decision; the
simulated data movement lives in :mod:`repro.overlay.rebalance`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fairness import JainState
from repro.core.maxfair import Assignment
from repro.core.popularity import CategoryStats, build_category_stats
from repro.model.system import SystemInstance

__all__ = ["Move", "ReassignResult", "maxfair_reassign", "maxfair_reassign_from_stats"]


@dataclass(frozen=True, slots=True)
class Move:
    """One category reassignment decided by MaxFair_Reassign."""

    category_id: int
    source_cluster: int
    target_cluster: int
    fairness_after: float


@dataclass(slots=True)
class ReassignResult:
    """Outcome of a MaxFair_Reassign run.

    ``fairness_trace[0]`` is the fairness before any move; entry ``i + 1``
    is the fairness after the ``i``-th move — the series plotted in
    Figure 5.
    """

    assignment: Assignment
    moves: list[Move]
    fairness_trace: list[float]
    converged: bool

    @property
    def n_moves(self) -> int:
        return len(self.moves)

    @property
    def initial_fairness(self) -> float:
        return self.fairness_trace[0]

    @property
    def final_fairness(self) -> float:
        return self.fairness_trace[-1]


def maxfair_reassign_from_stats(
    stats: CategoryStats,
    assignment: Assignment,
    fairness_threshold: float = 0.92,
    max_moves: int = 50,
) -> ReassignResult:
    """Run MaxFair_Reassign over precomputed category statistics.

    Mutates and returns a *copy* of ``assignment``; the caller's assignment
    is untouched.  Move counters are bumped on every reassignment so the
    lazy-rebalancing conflict resolution (Section 6.1.2) can order updates.
    """
    if not 0.0 < fairness_threshold <= 1.0:
        raise ValueError(
            f"fairness_threshold must be in (0, 1], got {fairness_threshold}"
        )
    if max_moves < 0:
        raise ValueError(f"max_moves must be non-negative, got {max_moves}")
    if not assignment.is_complete():
        raise ValueError("MaxFair_Reassign requires a complete assignment")

    result_assignment = assignment.copy()
    weights = stats.storage_weight
    state = JainState.of_assignment(stats, result_assignment)
    trace = [state.fairness()]
    moves: list[Move] = []

    while state.fairness() < fairness_threshold and len(moves) < max_moves:
        # The paper picks the cluster with the highest normalized
        # popularity.  When no move out of it improves fairness (its hot
        # category would be even hotter on any other cluster's capacity),
        # fall through to the next-hottest cluster rather than stalling.
        chosen: tuple[float, int, int, int] | None = None  # (f, cat, src, tgt)
        for source in np.argsort(-state.values):
            source = int(source)
            best: tuple[float, int, int] | None = None
            for category_id in result_assignment.categories_in(source):
                pop = float(stats.popularity[category_id])
                weight = float(weights[category_id])
                if pop <= 0.0:
                    continue
                for target in range(result_assignment.n_clusters):
                    if target == source:
                        continue
                    gain = state.fairness_if(
                        (source, -pop, -weight), (target, pop, weight)
                    )
                    if best is None or gain > best[0]:
                        best = (gain, category_id, target)
            if best is not None and best[0] > state.fairness() + 1e-12:
                chosen = (best[0], best[1], source, best[2])
                break
        if chosen is None:
            break  # no improving move exists anywhere; greedy is done
        _gain, category_id, source, target = chosen
        pop = float(stats.popularity[category_id])
        weight = float(weights[category_id])
        state.apply((source, -pop, -weight), (target, pop, weight))
        result_assignment.move(category_id, target)
        moves.append(
            Move(
                category_id=category_id,
                source_cluster=source,
                target_cluster=target,
                fairness_after=float(state.fairness()),
            )
        )
        trace.append(float(state.fairness()))

    return ReassignResult(
        assignment=result_assignment,
        moves=moves,
        fairness_trace=trace,
        converged=state.fairness() >= fairness_threshold,
    )


def maxfair_reassign(
    instance: SystemInstance,
    assignment: Assignment,
    fairness_threshold: float = 0.92,
    stats: CategoryStats | None = None,
) -> ReassignResult:
    """Run MaxFair_Reassign on a system instance.

    ``stats`` should be rebuilt after any content perturbation so the
    popularity vector reflects the *current* system state — exactly what
    the Phase 1 monitoring of Section 6.1.2 estimates from hit counters.
    The move budget is :func:`maxfair_reassign_from_stats`'s default.
    """
    if stats is None:
        stats = build_category_stats(instance)
    return maxfair_reassign_from_stats(
        stats, assignment, fairness_threshold=fairness_threshold
    )
