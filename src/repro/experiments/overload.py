"""OVERLOAD — goodput and latency vs offered load, shedding on/off.

Not a paper figure, but the paper's flash-crowd story (Section 6) assumes
peers survive demand spikes; an unprotected peer with an unbounded intake
queue instead builds backlog linearly once offered load passes its
service capacity, so *every* query eventually misses its latency target —
goodput falls off a cliff exactly when the system is busiest.

This experiment sweeps offered load as a multiple of the world's
aggregate service capacity and runs the same Zipf retrieval workload
twice per point:

* **unprotected** — the service model on (queries cost real service
  time) but with unbounded queues: no admission control;
* **protected** — bounded intake queues with redirect-to-replica
  admission (falling back to shed + ``BUSY``).

Both arms run with reliability on, so a lost, shed or late query fails
over on the requester's deadline.  The reliable channel's own
protections (retry budgets, circuit breakers, adaptive ack timeouts) are
left off: queries and their answers are not channel sends, so in this
query-only world they would act on no message.  CACHE-QOS, where replica
transfers are channel sends, is the experiment that meters them.

Reported *goodput* counts only timely successes (first response within
the SLO) per second of offered window.  The protected arm should degrade
gracefully — goodput at 2x saturation stays near its peak because excess
queries are shed or redirected early and queue waits stay bounded by
``queue_capacity * service_time`` — while the unprotected arm collapses
as backlog (and deadline-driven failover amplification) pushes responses
past the SLO.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.core.replication import build_world
from repro.experiments.common import require
from repro.metrics.report import format_table
from repro.metrics.response import summarize_responses
from repro.model.system import SystemConfig, build_system
from repro.model.workload import make_query_workload
from repro.overlay.service import ServiceConfig
from repro.overlay.system import P2PSystem, P2PSystemConfig
from repro.reliability import ReliabilityConfig

__all__ = ["OverloadRow", "OverloadResult", "measure", "run", "format_result"]

#: offered load as a multiple of aggregate service capacity.
LOAD_SETTINGS = (0.5, 1.0, 1.5, 2.0)

#: per-document service time of a capacity-1.0 node, seconds.  Slow on
#: purpose: the window must cover many multiples of the service time so
#: steady-state queueing, not the empty-queue transient, dominates.
BASE_SERVICE_TIME = 0.5

#: bounded intake queue depth for the protected arm, sized so the worst
#: admitted wait — ``(capacity + 1) * service_time`` on a capacity-1.0
#: node — stays inside the SLO.
QUEUE_CAPACITY = 3

#: a success only counts toward goodput when its first response arrives
#: within this many seconds (deliberately below the reliability layer's
#: query deadline: a response that limps in just before give-up is not
#: "good" service).
SLO = 2.0

#: seconds of offered traffic per sweep cell.  Long relative to the SLO:
#: at 2x saturation an unbounded queue's wait grows by a second per
#: second, so most of a long window is served hopelessly late.
DEFAULT_WINDOW = 10.0

#: fixed chaos-style world shape (paper-scale knobs collapse to one
#: cluster at sizes this small, which would starve the redirect policy
#: of replica holders).
_WORLD = dict(
    n_docs=200,
    n_nodes=12,
    n_categories=12,
    n_clusters=4,
    doc_size_bytes=65_536,
)


@dataclass(frozen=True, slots=True)
class OverloadRow:
    """One (load multiple, protection mode) measurement."""

    load: float
    protected: bool
    offered_rate: float
    n_queries: int
    #: timely successes per second of offered window.
    goodput: float
    #: fraction of queries answered within the SLO.
    timely_rate: float
    #: fraction answered at all (ignoring the SLO).
    success_rate: float
    p99_latency: float
    #: queries rejected with BUSY by full service queues.
    shed: int
    #: queries re-routed to a replica holder instead of queueing.
    redirected: int
    query_failovers: int
    #: simulated seconds past the last issue until full quiescence.
    drain_s: float


@dataclass(frozen=True, slots=True)
class OverloadResult:
    seed: int
    slo: float
    window_s: float
    #: aggregate service rate of the world, queries/second.
    saturation_rate: float
    rows: tuple[OverloadRow, ...]

    def peak_goodput(self, protected: bool) -> float:
        return max(
            (row.goodput for row in self.rows if row.protected is protected),
            default=0.0,
        )

    def degradation(self, protected: bool) -> float:
        """Goodput at the highest swept load as a fraction of the arm's peak."""
        arm = [row for row in self.rows if row.protected is protected]
        if not arm:
            return 0.0
        peak = self.peak_goodput(protected)
        if peak <= 0.0:
            return 0.0
        worst = max(arm, key=lambda row: row.load)
        return worst.goodput / peak


def _build_world(seed: int, protected: bool):
    # Replicate aggressively: the redirect policy needs alternate holders.
    instance, assignment, plan = build_world(
        SystemConfig(seed=seed, **_WORLD), n_reps=3, hot_mass=0.5
    )
    if protected:
        service = ServiceConfig(
            enabled=True,
            base_service_time=BASE_SERVICE_TIME,
            queue_capacity=QUEUE_CAPACITY,
            policy="redirect",
        )
    else:
        service = ServiceConfig(
            enabled=True,
            base_service_time=BASE_SERVICE_TIME,
            queue_capacity=0,  # unbounded: admit everything, queue forever
        )
    system = P2PSystem(
        instance,
        assignment,
        plan=plan,
        config=P2PSystemConfig(
            seed=seed, reliability=ReliabilityConfig(enabled=True), service=service
        ),
    )
    return instance, system


def measure(
    load: float,
    protected: bool,
    seed: int = 7,
    window: float = DEFAULT_WINDOW,
) -> OverloadRow:
    """Run one offered-load window under one protection mode.

    Builds a fresh world each call so the two arms of a sweep point are
    identical except for the protection switches.
    """
    instance, system = _build_world(seed, protected)
    capacity = sum(node.capacity_units for node in instance.nodes.values())
    saturation_rate = capacity / BASE_SERVICE_TIME
    offered_rate = load * saturation_rate
    n_queries = max(1, int(round(offered_rate * window)))
    workload = make_query_workload(instance, n_queries, seed=seed + 1)

    shed = obs.counter("overload.shed")
    redirected = obs.counter("overload.redirected")
    failovers = obs.counter("reliability.query_failovers")
    before = (shed.value, redirected.value, failovers.value)
    issue_span = (n_queries - 1) / offered_rate
    started = system.sim.now
    outcomes = system.run_workload(workload, query_interval=1.0 / offered_rate)
    drain_s = max(0.0, system.sim.now - started - issue_span)
    response = summarize_responses(outcomes)
    timely = sum(
        1
        for outcome in outcomes
        if outcome.succeeded
        and outcome.latency is not None
        and outcome.latency <= SLO
    )
    return OverloadRow(
        load=load,
        protected=protected,
        offered_rate=offered_rate,
        n_queries=n_queries,
        goodput=timely / window,
        timely_rate=timely / max(1, len(outcomes)),
        success_rate=response.success_rate,
        p99_latency=response.p99_latency,
        shed=int(shed.value - before[0]),
        redirected=int(redirected.value - before[1]),
        query_failovers=int(failovers.value - before[2]),
        drain_s=drain_s,
    )


def run(
    seed: int = 7,
    loads: tuple[float, ...] = LOAD_SETTINGS,
    window: float = DEFAULT_WINDOW,
) -> OverloadResult:
    """Sweep offered load x {unprotected, protected}.

    There is no ``scale``: the sweep uses a fixed multi-cluster world so
    saturation is well-defined and the redirect policy always has replica
    holders to offer.
    """
    instance = build_system(SystemConfig(seed=seed, **_WORLD))
    capacity = sum(node.capacity_units for node in instance.nodes.values())
    rows = []
    for load in loads:
        for protected in (False, True):
            rows.append(measure(load, protected, seed=seed, window=window))
    return OverloadResult(
        seed=seed,
        slo=SLO,
        window_s=window,
        saturation_rate=capacity / BASE_SERVICE_TIME,
        rows=tuple(rows),
    )


def format_result(result: OverloadResult) -> str:
    rows = [
        (
            f"{row.load:.1f}x",
            "on" if row.protected else "off",
            row.n_queries,
            f"{row.goodput:.1f}",
            f"{row.timely_rate:.3f}",
            f"{row.success_rate:.3f}",
            f"{row.p99_latency:.3f}",
            row.shed,
            row.redirected,
            row.query_failovers,
            f"{row.drain_s:.2f}",
        )
        for row in result.rows
    ]
    table = format_table(
        headers=(
            "load",
            "shedding",
            "queries",
            "goodput",
            "timely",
            "success",
            "p99",
            "shed",
            "redirected",
            "failovers",
            "drain s",
        ),
        rows=rows,
        title=(
            f"OVERLOAD: goodput vs offered load "
            f"(saturation {result.saturation_rate:.0f} q/s, "
            f"SLO {result.slo:.1f}s, {result.window_s:.1f}s windows)"
        ),
    )
    lines = [table]
    for protected in (False, True):
        label = "protected" if protected else "unprotected"
        lines.append(
            f"  {label}: peak goodput {result.peak_goodput(protected):.1f} q/s, "
            f"retains {result.degradation(protected):.0%} of peak at "
            f"{max(row.load for row in result.rows):.1f}x saturation"
        )
    return "\n".join(lines)


def smoke() -> None:
    """CI gate: shedding on, nonzero goodput."""
    result = run(loads=(1.0, 2.0), window=2.0)
    print(format_result(result))
    require(any(row.protected for row in result.rows), "no protected rows measured")
    require(result.peak_goodput(True) > 0, "protected goodput is zero")
