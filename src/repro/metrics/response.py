"""Response-time and hop-count statistics.

The paper's user-side efficiency goal is "short response times", with the
architectural claim that the common case needs only a few hops and the
worst case is bounded by the size of the largest participating cluster
(Section 3.3).  These helpers summarize per-query outcomes into the
distributions those claims are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.frozen import frozen_dataclass

__all__ = ["QueryOutcome", "ResponseStats", "summarize_responses"]


@frozen_dataclass
class QueryOutcome:
    """What happened to one query."""

    query_id: int
    issued_at: float
    first_response_at: float | None
    first_response_hops: int | None
    results: int
    wanted: int
    failed: bool = False

    @property
    def succeeded(self) -> bool:
        return self.results > 0 and not self.failed

    @property
    def latency(self) -> float | None:
        if self.first_response_at is None:
            return None
        return self.first_response_at - self.issued_at


@dataclass(frozen=True, slots=True)
class ResponseStats:
    """Aggregate response behaviour of a query workload."""

    n_queries: int
    n_succeeded: int
    #: protocol failures only (``QueryOutcome.failed``); a query that
    #: completed with zero results is *unanswered*, not failed.
    n_failed: int
    #: completed without error but returned no results (e.g. the catalog
    #: holds no matching document).
    n_unanswered: int
    mean_hops: float
    p50_hops: float
    p99_hops: float
    max_hops: int
    mean_latency: float
    p99_latency: float

    @property
    def success_rate(self) -> float:
        if self.n_queries == 0:
            return 0.0
        return self.n_succeeded / self.n_queries

    def rows(self) -> list[tuple[str, str]]:
        return [
            ("queries", str(self.n_queries)),
            ("succeeded", str(self.n_succeeded)),
            ("failed", str(self.n_failed)),
            ("unanswered", str(self.n_unanswered)),
            ("success rate", f"{self.success_rate:.4f}"),
            ("mean hops (first result)", f"{self.mean_hops:.2f}"),
            ("p50 hops", f"{self.p50_hops:.1f}"),
            ("p99 hops", f"{self.p99_hops:.1f}"),
            ("max hops", str(self.max_hops)),
            ("mean latency", f"{self.mean_latency:.4f}"),
            ("p99 latency", f"{self.p99_latency:.4f}"),
        ]


def summarize_responses(outcomes) -> ResponseStats:
    """Summarize an iterable of :class:`QueryOutcome`."""
    outcomes = list(outcomes)
    succeeded = [o for o in outcomes if o.succeeded]
    hops = np.array(
        [o.first_response_hops for o in succeeded if o.first_response_hops is not None],
        dtype=np.float64,
    )
    latencies = np.array(
        [o.latency for o in succeeded if o.latency is not None], dtype=np.float64
    )
    return ResponseStats(
        n_queries=len(outcomes),
        n_succeeded=len(succeeded),
        n_failed=sum(1 for o in outcomes if o.failed),
        n_unanswered=sum(1 for o in outcomes if not o.failed and o.results == 0),
        mean_hops=float(hops.mean()) if len(hops) else 0.0,
        p50_hops=float(np.percentile(hops, 50)) if len(hops) else 0.0,
        p99_hops=float(np.percentile(hops, 99)) if len(hops) else 0.0,
        max_hops=int(hops.max()) if len(hops) else 0,
        mean_latency=float(latencies.mean()) if len(latencies) else 0.0,
        p99_latency=float(np.percentile(latencies, 99)) if len(latencies) else 0.0,
    )
