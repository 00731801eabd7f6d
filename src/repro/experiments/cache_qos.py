"""CACHE-QOS — static vs demand-adaptive replication under a flash crowd.

The OVERLOAD experiment showed that admission control keeps goodput from
collapsing under saturation — but shedding only *rejects* excess demand.
This experiment measures what the adaptive pieces add on top: requester-
side caches (:mod:`repro.overlay.cache`) that turn every successful
retrieval into another servable replica, and the demand-adaptive
replication manager (:mod:`repro.overlay.replication_manager`) that
grows the hot category's replica set while the crowd lasts and shrinks
it back once the crowd passes.

Both arms run the *same* protected world (bounded service queues,
redirect admission, retry budgets) through three phases:

1. **warmup** — a light Zipf workload; the adaptive arm runs a control
   round that should leave replica counts at baseline (no false grows);
2. **flash crowd** — a sustained doc-targeted burst at one category,
   offered at a multiple of aggregate service capacity, split into
   chunks with one control round between chunks (adaptive arm only);
3. **cooldown** — quiet control rounds; the manager's slow-shrink
   hysteresis retires the crowd-era replicas one per round.

Reported per arm: crowd-phase goodput (timely successes per second),
p99 latency, shed count, cache accounting, and the managed-replica trace
(baseline / peak / final) — the last demonstrating that hysteresis works
in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.replication import build_world
from repro.experiments.common import require
from repro.metrics.report import format_table
from repro.metrics.response import summarize_responses
from repro.model.system import SystemConfig
from repro.model.workload import Query, QueryWorkload, make_query_workload
from repro.overlay.replication_manager import ReplicationConfig
from repro.overlay.service import ServiceConfig
from repro.overlay.system import P2PSystem, P2PSystemConfig
from repro.reliability import ReliabilityConfig

__all__ = [
    "ArmResult",
    "CacheQosResult",
    "run",
    "format_result",
]

#: per-document service time of a capacity-1.0 node (see OVERLOAD).
BASE_SERVICE_TIME = 0.5

#: bounded intake queue of the protected service model.
QUEUE_CAPACITY = 3

#: a success counts toward goodput only within this many seconds.
DEFAULT_SLO = 2.0

#: flash-crowd offered load as a multiple of aggregate service capacity.
CROWD_LOAD = 2.0

#: seconds of crowd traffic per chunk (a control round runs between
#: chunks in the adaptive arm).
CHUNK_WINDOW = 2.5

#: chunks in the flash-crowd phase.
CROWD_CHUNKS = 4

#: warmup offered load (light; must not trigger growth).
WARMUP_LOAD = 0.4

#: seconds of warmup traffic.
WARMUP_WINDOW = 5.0

#: quiet control rounds after the crowd (enough for the slow shrink to
#: retire every crowd-era replica: at least ``SHRINK_AFTER`` +
#: ``MAX_REPLICAS`` of :mod:`repro.overlay.replication_manager`).
COOLDOWN_ROUNDS = 12

#: documents the crowd hammers (aligned with the manager's
#: ``DOCS_PER_REPLICA`` so grown replicas hold exactly the hot set).
HOT_DOCS = 4

#: requester-side cache capacity of the adaptive arm, documents.
CACHE_CAPACITY = 16

#: fixed world shape shared with OVERLOAD (multi-cluster at small scale).
_WORLD = dict(
    n_docs=200,
    n_nodes=12,
    n_categories=12,
    n_clusters=4,
    doc_size_bytes=65_536,
)


@dataclass(frozen=True, slots=True)
class ArmResult:
    """One arm's crowd-phase measurements and replica trace."""

    adaptive: bool
    n_queries: int
    #: timely successes per second of crowd window.
    goodput: float
    timely_rate: float
    success_rate: float
    p99_latency: float
    #: queries rejected with BUSY during the crowd phase.
    shed: int
    #: managed replicas after warmup / at crowd peak / after cooldown.
    replicas_baseline: int
    replicas_peak: int
    replicas_final: int
    cache_fills: int
    cache_served_hits: int
    cache_evictions: int


@dataclass(frozen=True, slots=True)
class CacheQosResult:
    seed: int
    slo: float
    crowd_window_s: float
    saturation_rate: float
    hot_category: int
    static: ArmResult
    adaptive: ArmResult


def _build_world(seed: int, adaptive: bool):
    instance, assignment, plan = build_world(SystemConfig(seed=seed, **_WORLD))
    reliability = ReliabilityConfig(
        enabled=True,
        retry_budget_ratio=0.5,
        breaker_threshold=3,
        adaptive_timeout=True,
    )
    service = ServiceConfig(
        enabled=True,
        base_service_time=BASE_SERVICE_TIME,
        queue_capacity=QUEUE_CAPACITY,
        policy="redirect",
    )
    config = P2PSystemConfig(
        seed=seed,
        reliability=reliability,
        service=service,
        cache_capacity=CACHE_CAPACITY if adaptive else 0,
        replication=(
            ReplicationConfig(enabled=True) if adaptive else ReplicationConfig()
        ),
    )
    system = P2PSystem(instance, assignment, plan=plan, config=config)
    return instance, system


def _hot_targets(instance) -> tuple[int, tuple[int, ...]]:
    """The crowd's target category and document set.

    Deterministic: the category with the most documents (lowest id on
    ties) and its first ``HOT_DOCS`` documents by id.
    """
    by_category: dict[int, list[int]] = {}
    for doc_id, doc in sorted(instance.documents.items()):
        for category_id in doc.categories:
            by_category.setdefault(category_id, []).append(doc_id)
    category_id = max(sorted(by_category), key=lambda c: len(by_category[c]))
    return category_id, tuple(by_category[category_id][:HOT_DOCS])


def _crowd_chunk(
    system, category_id: int, doc_ids, n: int, interval: float, rng
):
    """One doc-targeted burst aimed at the hot set (cf. chaos flash_crowd)."""
    alive = [peer.node_id for peer in system.alive_peers()]
    queries = [
        Query(
            query_id=index,
            requester_id=alive[int(rng.integers(0, len(alive)))],
            target_doc_id=doc_ids[int(rng.integers(0, len(doc_ids)))],
            category_ids=(category_id,),
            m=1,
        )
        for index in range(n)
    ]
    return system.run_workload(
        QueryWorkload(queries=queries), query_interval=interval
    )


def _measure_arm(
    adaptive: bool,
    seed: int,
    slo: float,
    crowd_chunks: int,
    chunk_window: float,
    warmup_window: float,
    cooldown_rounds: int,
) -> tuple[ArmResult, float, int]:
    instance, system = _build_world(seed, adaptive)
    capacity = sum(node.capacity_units for node in instance.nodes.values())
    saturation_rate = capacity / BASE_SERVICE_TIME
    hot_category, hot_docs = _hot_targets(instance)
    shed_counter = obs.counter("overload.shed")

    def managed() -> int:
        return (
            system.replication.total_managed()
            if system.replication is not None
            else 0
        )

    # Phase 1: warmup — light Zipf traffic plus one control round.
    warmup_rate = WARMUP_LOAD * saturation_rate
    n_warmup = max(1, int(round(warmup_rate * warmup_window)))
    warmup = make_query_workload(instance, n_warmup, seed=seed + 1)
    system.run_workload(warmup, query_interval=1.0 / warmup_rate)
    system.run_replication_round()
    replicas_baseline = managed()

    # Phase 2: flash crowd — chunks with a control round between them.
    crowd_rate = CROWD_LOAD * saturation_rate
    per_chunk = max(1, int(round(crowd_rate * chunk_window)))
    crowd_rng = np.random.default_rng(seed + 2)
    shed_before = shed_counter.value
    outcomes = []
    replicas_peak = replicas_baseline
    for _chunk in range(crowd_chunks):
        outcomes.extend(
            _crowd_chunk(
                system,
                hot_category,
                hot_docs,
                per_chunk,
                1.0 / crowd_rate,
                crowd_rng,
            )
        )
        system.run_replication_round()
        replicas_peak = max(replicas_peak, managed())
    crowd_shed = int(shed_counter.value - shed_before)

    # Phase 3: cooldown — quiet rounds; slow shrink retires the replicas.
    for _round in range(cooldown_rounds):
        system.run_replication_round()
    replicas_final = managed()

    response = summarize_responses(outcomes)
    timely = sum(
        1
        for outcome in outcomes
        if outcome.succeeded
        and outcome.latency is not None
        and outcome.latency <= slo
    )
    crowd_window = crowd_chunks * chunk_window
    cache_totals = {"fills": 0, "served_hits": 0, "evictions": 0}
    for peer in system.alive_peers():
        stats = peer.cache_stats()
        for key in cache_totals:
            cache_totals[key] += stats[key]
    arm = ArmResult(
        adaptive=adaptive,
        n_queries=len(outcomes),
        goodput=timely / crowd_window,
        timely_rate=timely / max(1, len(outcomes)),
        success_rate=response.success_rate,
        p99_latency=response.p99_latency,
        shed=crowd_shed,
        replicas_baseline=replicas_baseline,
        replicas_peak=replicas_peak,
        replicas_final=replicas_final,
        cache_fills=cache_totals["fills"],
        cache_served_hits=cache_totals["served_hits"],
        cache_evictions=cache_totals["evictions"],
    )
    return arm, saturation_rate, hot_category


def run(
    seed: int = 7,
    slo: float = DEFAULT_SLO,
    crowd_chunks: int = CROWD_CHUNKS,
    chunk_window: float = CHUNK_WINDOW,
    warmup_window: float = WARMUP_WINDOW,
    cooldown_rounds: int = COOLDOWN_ROUNDS,
) -> CacheQosResult:
    """Run both arms over identical worlds and crowd traffic.

    There is no ``scale``: the experiment uses the fixed multi-cluster
    OVERLOAD world so saturation is well defined and the redirect policy
    has replica holders to offer.  The phase-length knobs exist for the
    test suite, which runs a shortened crowd; the defaults are the
    reported experiment.
    """
    phase_kwargs = dict(
        crowd_chunks=crowd_chunks,
        chunk_window=chunk_window,
        warmup_window=warmup_window,
        cooldown_rounds=cooldown_rounds,
    )
    static_arm, saturation_rate, hot_category = _measure_arm(
        adaptive=False, seed=seed, slo=slo, **phase_kwargs
    )
    adaptive_arm, _, _ = _measure_arm(
        adaptive=True, seed=seed, slo=slo, **phase_kwargs
    )
    return CacheQosResult(
        seed=seed,
        slo=slo,
        crowd_window_s=crowd_chunks * chunk_window,
        saturation_rate=saturation_rate,
        hot_category=hot_category,
        static=static_arm,
        adaptive=adaptive_arm,
    )


def format_result(result: CacheQosResult) -> str:
    rows = [
        (
            "adaptive" if arm.adaptive else "static",
            arm.n_queries,
            f"{arm.goodput:.1f}",
            f"{arm.timely_rate:.3f}",
            f"{arm.success_rate:.3f}",
            f"{arm.p99_latency:.3f}",
            arm.shed,
            f"{arm.replicas_baseline}/{arm.replicas_peak}/{arm.replicas_final}",
            arm.cache_fills,
            arm.cache_served_hits,
        )
        for arm in (result.static, result.adaptive)
    ]
    table = format_table(
        headers=(
            "replication",
            "queries",
            "goodput",
            "timely",
            "success",
            "p99",
            "shed",
            "replicas b/p/f",
            "cache fills",
            "cache serves",
        ),
        rows=rows,
        title=(
            f"CACHE-QOS: flash crowd at {CROWD_LOAD:.1f}x saturation "
            f"({result.saturation_rate:.0f} q/s) on category "
            f"{result.hot_category}, SLO {result.slo:.1f}s, "
            f"{result.crowd_window_s:.0f}s crowd window"
        ),
    )
    static, adaptive = result.static, result.adaptive
    lines = [table]
    lines.append(
        f"  goodput: static {static.goodput:.1f} q/s -> adaptive "
        f"{adaptive.goodput:.1f} q/s; p99: {static.p99_latency:.3f}s -> "
        f"{adaptive.p99_latency:.3f}s"
    )
    lines.append(
        f"  hysteresis: managed replicas {adaptive.replicas_baseline} "
        f"(baseline) -> {adaptive.replicas_peak} (crowd peak) -> "
        f"{adaptive.replicas_final} (after cooldown)"
    )
    return "\n".join(lines)


def smoke() -> None:
    """CI gate: adaptive beats static, hysteresis closes."""
    result = run()
    print(format_result(result))
    static, adaptive = result.static, result.adaptive
    require(adaptive.goodput >= static.goodput, "adaptive goodput regressed")
    require(adaptive.p99_latency <= static.p99_latency, "adaptive p99 regressed")
    require(adaptive.replicas_peak > 0, "manager never grew under the crowd")
    require(
        adaptive.replicas_final == adaptive.replicas_baseline == 0,
        "replica set did not return to baseline after the crowd",
    )
