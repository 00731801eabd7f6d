"""Tests for the requester-side query cache (future-work item viii)."""

import numpy as np
import pytest

from repro.core.fairness import jain_fairness
from repro.model.workload import make_query_workload
from repro.overlay.peer import PeerConfig
from repro.overlay.system import P2PSystem, P2PSystemConfig

from tests.helpers import MicroOverlay, build_world


def _cached_overlay(capacity=4):
    overlay = MicroOverlay()
    for node_id in (0, 1, 2):
        overlay.add_peer(node_id, config=PeerConfig(cache_capacity=capacity))
    overlay.wire_cluster(0, [0, 1, 2], edges=[(0, 1), (1, 2)],
                         category_map={7: 0})
    return overlay


class TestPeerCache:
    def test_retrieved_document_is_cached(self):
        overlay = _cached_overlay()
        overlay.give_document(1, 100, [7])
        requester = overlay.peers[0]
        requester.nrt.remove_node(0)
        requester.nrt.remove_node(2)
        requester.start_query(1, 7, 1, target_doc_id=100)
        overlay.run()
        assert requester.dt.has_document(100)
        # The cached copy registered in the holder directory.
        assert 0 in overlay.hooks.holders[100]

    def test_cached_copy_serves_others(self):
        overlay = _cached_overlay()
        overlay.give_document(1, 100, [7])
        requester = overlay.peers[0]
        requester.nrt.remove_node(0)
        requester.nrt.remove_node(2)
        requester.start_query(1, 7, 1, target_doc_id=100)
        overlay.run()
        # Node 2 now asks; its first hop is node 0 (the cacher), which can
        # serve directly from cache.
        second = overlay.peers[2]
        second.nrt.remove_node(1)
        second.nrt.remove_node(2)
        second.start_query(2, 7, 1, target_doc_id=100)
        overlay.run()
        responders = [
            r.responder_id for peer_id, r in overlay.hooks.responses
            if peer_id == 2
        ]
        assert responders == [0]

    def test_lru_eviction(self):
        overlay = _cached_overlay(capacity=2)
        for doc_id in (100, 101, 102):
            overlay.give_document(1, doc_id, [7])
        requester = overlay.peers[0]
        requester.nrt.remove_node(0)
        requester.nrt.remove_node(2)
        for i, doc_id in enumerate((100, 101, 102)):
            requester.start_query(10 + i, 7, 1, target_doc_id=doc_id)
            overlay.run()
        assert not requester.dt.has_document(100)  # evicted
        assert requester.dt.has_document(101)
        assert requester.dt.has_document(102)
        # Eviction also unregistered the holder.
        assert 0 not in overlay.hooks.holders.get(100, set())

    def test_contributions_never_evicted(self):
        overlay = _cached_overlay(capacity=1)
        requester = overlay.peers[0]
        overlay.give_document(0, 50, [7])  # own contribution
        overlay.give_document(1, 100, [7])
        overlay.give_document(1, 101, [7])
        requester.nrt.remove_node(0)
        requester.nrt.remove_node(2)
        requester.start_query(1, 7, 1, target_doc_id=100)
        overlay.run()
        requester.start_query(2, 7, 1, target_doc_id=101)
        overlay.run()
        # 100 was evicted by 101 (capacity 1); the contribution survives.
        assert requester.dt.has_document(50)
        assert not requester.dt.has_document(100)

    def test_cache_disabled_by_default(self):
        overlay = MicroOverlay()
        for node_id in (0, 1):
            overlay.add_peer(node_id)
        overlay.wire_cluster(0, [0, 1], edges=[(0, 1)], category_map={7: 0})
        overlay.give_document(1, 100, [7])
        requester = overlay.peers[0]
        requester.nrt.remove_node(0)
        requester.start_query(1, 7, 1, target_doc_id=100)
        overlay.run()
        assert not requester.dt.has_document(100)

    def test_response_charged_as_download(self):
        overlay = _cached_overlay()
        overlay.give_document(1, 100, [7], size=5_000_000)
        requester = overlay.peers[0]
        requester.nrt.remove_node(0)
        requester.nrt.remove_node(2)
        requester.start_query(1, 7, 1, target_doc_id=100)
        overlay.run()
        assert overlay.network.stats.bytes_by_kind["query_response"] >= 5_000_000


class TestSystemLevelCache:
    def test_caching_spreads_hot_load(self):
        """With caching on, the hottest documents' load spreads over the
        peers that retrieved them, improving load fairness."""
        instance, assignment, plan = build_world(scale=0.02, seed=41, hot_mass=0.0)
        workload = make_query_workload(instance, 4000, seed=42)

        def run_with(capacity):
            system = P2PSystem(
                instance,
                assignment,
                plan=plan,
                config=P2PSystemConfig(cache_capacity=capacity, seed=1),
            )
            system.run_workload(workload)
            loads = np.array(list(system.node_loads().values()), dtype=float)
            return jain_fairness(loads), float(loads.max() / max(1.0, loads.sum()))

        fairness_off, hottest_off = run_with(0)
        fairness_on, hottest_on = run_with(16)
        assert fairness_on > fairness_off
        assert hottest_on <= hottest_off
