"""A long run holds what its world holds: heap growth per query is bounded.

A ``sim_query_bare``-shaped world (every optional layer off, a replica
plan, 16 known members per foreign cluster) answers query segments back to
back.  Once every loop-detection window has rotated, the ``tracemalloc``
heap may grow between two later segments only by what a run is meant to
keep (the latency histogram's two 8-byte samples per answer) plus slack.
While the windows never expired, the same reading was about 235 B a query.
"""

import gc
import tracemalloc

from repro.model.workload import make_query_workload
from repro.overlay.query_protocol import SEEN_QUERY_TTL
from repro.overlay.system import P2PSystemConfig
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
