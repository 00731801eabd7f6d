"""A long run holds what its world holds: heap growth per operation is bounded.

A ``sim_query_bare``-shaped world (every optional layer off, a replica
plan, two clusters, 16 known members per foreign cluster) answers query
segments back to back.  Once every loop-detection window has rotated, the
``tracemalloc`` heap may grow between two later segments only by slack:
a run keeps nothing per query (see
:func:`test_heap_growth_per_query_is_bounded`).  While the windows never
expired, the same reading was about 235 B a query.

A ``sim_fetch_churn``-shaped world runs amnesia-crash / fetch / recover /
drop cycles under the same reading (see
:func:`test_heap_growth_per_fetch_is_bounded`), and a world with
``sim_query_fullstack``'s configuration answers query segments (see
:func:`test_heap_growth_per_query_is_bounded_full_stack`).
"""

import gc
import tracemalloc

import numpy as np

from repro.content import ContentConfig
from repro.core.maxfair import maxfair
from repro.core.popularity import build_category_stats
from repro.core.replication import plan_replication
from repro.durability import DurabilityConfig
from repro.model.system import SystemConfig, SystemInstance, build_system
from repro.model.workload import make_query_workload
from repro.overlay.query_protocol import SEEN_QUERY_TTL
from repro.overlay.replication_manager import ReplicationConfig
from repro.overlay.service import ServiceConfig
from repro.overlay.system import P2PSystem, P2PSystemConfig
from repro.reliability import ReliabilityConfig
from tests.helpers import build_live_system


def heap_growth_per_op(segment, untraced: int, traced: int, measured: int) -> float:
    """Traced heap bytes per operation that ``measured`` segments leave behind.

    ``segment(index)`` runs segment ``index`` and returns how many
    operations it ran.  The first ``untraced`` segments run before
    ``tracemalloc`` starts, the next ``traced`` under it, and the reading
    is taken across the ``measured`` segments after those.
    """
    for index in range(untraced):
        segment(index)
    warmup = untraced + traced
    # A caller may have started tracing already, to trace its world's
    # build too.
    if not tracemalloc.is_tracing():
        tracemalloc.start()
    try:
        # Tracing sees a free only of a block it saw allocated: the traced
        # warm-up lets the containers the run keeps reallocating (caches,
        # journals, snapshots) be replaced by traced ones first.
        for index in range(untraced, warmup):
            segment(index)
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        ops = sum(segment(warmup + index) for index in range(measured))
        gc.collect()
        end = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (end - start) / ops


#: ceiling on heap bytes a query may leave behind once windows rotate.
BYTES_PER_QUERY = 16
QUERIES = 1000
#: transport seconds one segment spans (queries are this far apart / QUERIES).
SEGMENT_S = 30.0
WARMUP_SEGMENTS = 4
MEASURED_SEGMENTS = 5


def test_heap_growth_per_query_is_bounded():
    """Scale 0.02 is the smallest with two clusters (0.01 rounds to one),
    so queries reach a foreign cluster and fill its members' loop windows.

    A run keeps nothing per query: a query's latency lives in its
    outcome, which lasts one workload.  What moves between two readings
    are sites that level off: each peer's hit counters (one per category
    it serves), the loop windows' tables (two generations) and the query
    id ints they hold.  They read 6.1-8.7 B a query over seeds 1, 3, 5,
    7, 11, 13 and 17 (7.0 and 6.1 at seeds 7 and 11, alone as after the
    rest of this file).  The ceiling is twice the largest, rounded up:
    one fresh float kept per query (8 B of pointer, 24 of object)
    exceeds it.
    """
    assert WARMUP_SEGMENTS * SEGMENT_S >= 2 * SEEN_QUERY_TTL
    config = P2PSystemConfig(seed=7, remote_nrt_sample=16)
    _, system = build_live_system(scale=0.02, seed=7, config=config)

    def segment(index: int) -> int:
        workload = make_query_workload(system.instance, QUERIES, seed=700 + index)
        system.run_workload(workload, query_interval=SEGMENT_S / QUERIES)
        return QUERIES

    per_query = heap_growth_per_op(
        segment, untraced=0, traced=WARMUP_SEGMENTS + 1, measured=MEASURED_SEGMENTS
    )
    print(f"heap growth: {per_query:.1f} B per query")
    assert per_query <= BYTES_PER_QUERY


#: ceiling on heap bytes a fetch may leave behind after the warm-up.
BYTES_PER_FETCH = 500
FETCHES_PER_CYCLE = 100
#: candidate (requester, document) pairs drawn for one cycle.
CANDIDATES_PER_CYCLE = 300
CYCLES_PER_SEGMENT = 10
#: warm-up segments run before tracing starts, then under tracing.
UNTRACED_WARMUP_SEGMENTS = 6
TRACED_WARMUP_SEGMENTS = 4
FETCH_MEASURED_SEGMENTS = 6


def lossy_world(instance: SystemInstance, config: P2PSystemConfig) -> P2PSystem:
    """MaxFair, a replica plan and a bootstrapped world; 2 % message loss."""
    assignment = maxfair(instance, stats=build_category_stats(instance))
    plan = plan_replication(instance, assignment, n_reps=2, hot_mass=0.35)
    system = P2PSystem(instance, assignment, plan=plan, config=config)
    system.network.rng = system.rngs.stream("loss.drop")
    system.network.set_drop_probability(0.02)
    return system


def fetch_churn_world(seed: int) -> P2PSystem:
    """2,000 four-chunk documents on 96 nodes in 8 clusters; reliability,
    content and durability on; 2 % message loss."""
    instance = build_system(SystemConfig(
        seed=seed,
        n_docs=2000,
        n_nodes=96,
        n_categories=24,
        n_clusters=8,
        doc_size_bytes=262_144,
    ))
    return lossy_world(instance, P2PSystemConfig(
        seed=seed,
        reliability=ReliabilityConfig(enabled=True),
        content=ContentConfig(enabled=True, max_chunk_attempts=8),
        durability=DurabilityConfig(enabled=True, snapshot_every=64),
    ))


def test_heap_growth_per_fetch_is_bounded():
    """Each cycle loses one node's memory, fetches 100 documents, recovers
    the node, runs one detector, reconciliation and healing round, and
    drops what it fetched, so every cycle meets a world of the same size.

    What may stay is what levels off at peers x documents (192,000 here)
    and is still filling after the warm-up: each peer's cached manifest of
    every document it ever held, which its durable snapshots carry too,
    the documents a replay rebuilt per peer, and the holder sets.  That
    is the remainder, 352 and 341 B a fetch at seeds 7 and 11.  When
    every settled fetch left its record in the content manager, the same
    readings were 1,084 and 1,062 B.
    """
    system = fetch_churn_world(seed=7)
    manager = system.content
    node_ids = system.all_node_ids()
    rng = np.random.default_rng(7)

    def segment(index: int) -> int:
        fetched = 0
        for cycle in range(CYCLES_PER_SEGMENT):
            victim = node_ids[int(rng.integers(0, len(node_ids)))]
            pairs = make_query_workload(
                system.instance,
                CANDIDATES_PER_CYCLE,
                seed=index * CYCLES_PER_SEGMENT + cycle,
            ).queries
            system.power_loss(victim)
            started = []
            for pair in pairs:
                fetch_id = manager.fetch(pair.requester_id, pair.target_doc_id)
                if fetch_id is not None:
                    started.append(manager.record_for(fetch_id))
                    if len(started) == FETCHES_PER_CYCLE:
                        break
            system.sim.run()
            system.recover_node(victim)
            system.run_failure_detector_rounds(1)
            system.run_reconciliation_round()
            system.run_healing_round()
            for record in started:
                assert record.verified, record
                system.peer(record.requester_id).drop_document(record.doc_id)
            fetched += len(started)
        return fetched

    per_fetch = heap_growth_per_op(
        segment,
        untraced=UNTRACED_WARMUP_SEGMENTS,
        traced=TRACED_WARMUP_SEGMENTS,
        measured=FETCH_MEASURED_SEGMENTS,
    )
    print(f"heap growth: {per_fetch:.1f} B per fetch")
    assert per_fetch <= BYTES_PER_FETCH


#: ceiling on heap bytes a query may leave behind in the full-stack world:
#: the WALs' swing plus the bare world's slack.
FULL_STACK_BYTES_PER_QUERY = 59 + BYTES_PER_QUERY
#: transport seconds between the starts of two full-stack segments.
FULL_STACK_PERIOD_S = 1.5 * SEEN_QUERY_TTL
FULL_STACK_WARMUP_SEGMENTS = 12
FULL_STACK_MEASURED_SEGMENTS = 8


def full_stack_world(seed: int) -> P2PSystem:
    """``sim_query_fullstack``'s world at a twelfth of its size: 500
    documents on 50 nodes, 15 categories in 3 clusters, 16 known members
    per foreign cluster; caches, reliability, the ``redirect`` service,
    the replica loop, content and durability on; 2 % message loss."""
    instance = build_system(SystemConfig(
        seed=seed, n_docs=500, n_nodes=50, n_categories=15, n_clusters=3
    ))
    return lossy_world(instance, P2PSystemConfig(
        seed=seed,
        remote_nrt_sample=16,
        cache_capacity=8,
        reliability=ReliabilityConfig(
            enabled=True,
            retry_budget_ratio=0.5,
            breaker_threshold=3,
            adaptive_timeout=True,
            max_attempts=8,
            query_attempts=16,
        ),
        service=ServiceConfig(enabled=True, queue_capacity=32, policy="redirect"),
        replication=ReplicationConfig(
            enabled=True, grow_threshold=0.5, shrink_threshold=0.1
        ),
        content=ContentConfig(enabled=True),
        durability=DurabilityConfig(enabled=True),
    ))


def test_heap_growth_per_query_is_bounded_full_stack():
    """Segments of 1,000 queries at 0.6 of the peers' service capacity,
    each followed by a replica round and started 1.5 x ``SEEN_QUERY_TTL``
    after the previous one, so that at every reading each loop window
    holds the same two generations.

    A run keeps nothing per query.  What it may gain is what the
    durability layer bounds: a peer's WAL holds fewer than
    ``snapshot_every`` (256) records of at most 37 B before a compaction
    clears it, so the 50 WALs may grow by up to 59 B a query over the
    8,000 measured queries.  The ceiling is those 59 B plus the bare
    world's slack, ``BYTES_PER_QUERY``.  Everything else levels off:
    caches at their capacity, holder sets at peers x documents, service
    queues at 32, loop windows at two generations.  The reading is 3.1
    and 6.5-6.6 B a query at seeds 7 and 11, alone as after the rest of
    this file, and 3.5-8.1 B over seeds 1, 3, 5, 13 and 17.

    The world is built under tracing: a block allocated before tracing
    starts and replaced after it (a peer's document table, a holder set,
    a snapshot) counts whole, and this world replaces them only every
    few thousand queries.  After an untraced build and warm-up, 8 to 12
    traced warm-up segments left readings of 33 to 52 B a query,
    depending on where those replacements fell.
    """
    tracemalloc.start()
    try:
        system = full_stack_world(seed=7)
        capacity = sum(system.node_capacities().values())
        interval = system.config.service.base_service_time / (0.6 * capacity)

        def segment(index: int) -> int:
            workload = make_query_workload(system.instance, 1000, seed=index)
            delay = (index + 1) * FULL_STACK_PERIOD_S - system.sim.now
            outcomes = system.run_workload(
                workload,
                at_times=[delay + k * interval for k in range(len(workload))],
            )
            system.run_replication_round()
            assert all(outcome.succeeded for outcome in outcomes)
            return len(outcomes)

        per_query = heap_growth_per_op(
            segment,
            untraced=0,
            traced=FULL_STACK_WARMUP_SEGMENTS,
            measured=FULL_STACK_MEASURED_SEGMENTS,
        )
    finally:
        tracemalloc.stop()
    print(f"heap growth: {per_query:.1f} B per query")
    assert per_query <= FULL_STACK_BYTES_PER_QUERY
