"""A long run holds what its world holds: heap growth per operation is bounded.

A ``sim_query_bare``-shaped world (every optional layer off, a replica
plan, 16 known members per foreign cluster) answers query segments back to
back.  Once every loop-detection window has rotated, the ``tracemalloc``
heap may grow between two later segments only by what a run is meant to
keep (the latency histogram's two 8-byte samples per answer) plus slack.
While the windows never expired, the same reading was about 235 B a query.

A ``sim_fetch_churn``-shaped world runs amnesia-crash / fetch / recover /
drop cycles under the same reading (see
:func:`test_heap_growth_per_fetch_is_bounded`).
"""

import gc
import tracemalloc

import numpy as np

from repro.content import ContentConfig
from repro.core.maxfair import maxfair
from repro.core.popularity import build_category_stats
from repro.core.replication import plan_replication
from repro.durability import DurabilityConfig
from repro.model.system import SystemConfig, build_system
from repro.model.workload import make_query_workload
from repro.overlay.query_protocol import SEEN_QUERY_TTL
from repro.overlay.system import P2PSystem, P2PSystemConfig
from repro.reliability import ReliabilityConfig
from tests.helpers import build_live_system

#: ceiling on heap bytes a query may leave behind once windows rotate.
BYTES_PER_QUERY = 80
QUERIES = 1000
#: transport seconds one segment spans (queries are this far apart / QUERIES).
SEGMENT_S = 30.0
WARMUP_SEGMENTS = 4
MEASURED_SEGMENTS = 5


def test_heap_growth_per_query_is_bounded():
    assert WARMUP_SEGMENTS * SEGMENT_S >= 2 * SEEN_QUERY_TTL
    config = P2PSystemConfig(seed=7, remote_nrt_sample=16)
    _, system = build_live_system(scale=0.01, seed=7, config=config)

    def segment(index: int) -> int:
        workload = make_query_workload(system.instance, QUERIES, seed=700 + index)
        system.run_workload(workload, query_interval=SEGMENT_S / QUERIES)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        for index in range(WARMUP_SEGMENTS):
            segment(index)
        start = segment(WARMUP_SEGMENTS)
        end = start
        for index in range(MEASURED_SEGMENTS):
            end = segment(WARMUP_SEGMENTS + 1 + index)
    finally:
        tracemalloc.stop()
    per_query = (end - start) / (QUERIES * MEASURED_SEGMENTS)
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
    assignment = maxfair(instance, stats=build_category_stats(instance))
    plan = plan_replication(instance, assignment, n_reps=2, hot_mass=0.35)
    system = P2PSystem(instance, assignment, plan=plan, config=P2PSystemConfig(
        seed=seed,
        reliability=ReliabilityConfig(enabled=True),
        content=ContentConfig(enabled=True, max_chunk_attempts=8),
        durability=DurabilityConfig(enabled=True, snapshot_every=64),
    ))
    system.network.rng = system.rngs.stream("loss.drop")
    system.network.set_drop_probability(0.02)
    return system


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

    warmup = UNTRACED_WARMUP_SEGMENTS + TRACED_WARMUP_SEGMENTS
    for index in range(UNTRACED_WARMUP_SEGMENTS):
        segment(index)
    tracemalloc.start()
    try:
        # Tracing sees a free only of a block it saw allocated: the traced
        # warm-up lets the containers the run keeps reallocating (caches,
        # journals, snapshots) be replaced by traced ones first.
        for index in range(UNTRACED_WARMUP_SEGMENTS, warmup):
            segment(index)
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        fetches = 0
        for index in range(FETCH_MEASURED_SEGMENTS):
            fetches += segment(warmup + index)
        gc.collect()
        end = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    per_fetch = (end - start) / fetches
    print(f"heap growth: {per_fetch:.1f} B per fetch over {fetches} fetches")
    assert per_fetch <= BYTES_PER_FETCH
