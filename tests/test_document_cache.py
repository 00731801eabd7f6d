"""Unit tests for the first-class requester-side cache.

:mod:`repro.overlay.cache` owns replacement bookkeeping only; these
tests pin its LRU semantics (byte-compatible with the historical inline
OrderedDict), the accounting
counters behind ``Peer.cache_stats``, and the holder-directory
consistency of evictions — including an eviction that races a query
already in flight toward the evicting node.
"""

import pytest

from repro.overlay.cache import DocumentCache
from repro.overlay.peer import DocInfo, PeerConfig

from tests.helpers import MicroOverlay


class TestDocumentCacheUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            DocumentCache(-1)

    def test_lru_evicts_least_recently_stored(self):
        cache = DocumentCache(2)
        assert cache.add(10) == ()
        assert cache.add(11) == ()
        assert cache.add(12) == (10,)  # oldest out
        assert cache.doc_ids() == [11, 12]

    def test_lru_touch_refreshes_recency(self):
        cache = DocumentCache(2)
        cache.add(10)
        cache.add(11)
        assert cache.touch(10) is True  # 10 becomes most recent
        assert cache.add(12) == (11,)

    def test_touch_unknown_doc_is_a_noop(self):
        cache = DocumentCache(2)
        assert cache.touch(99) is False
        assert len(cache) == 0

    def test_stats_accounting(self):
        cache = DocumentCache(1)
        cache.add(10)
        cache.add(11)  # evicts 10
        cache.touch(11)
        stats = cache.stats()
        assert stats == {
            "size": 1,
            "capacity": 1,
            "fills": 2,
            "evictions": 1,
            "served_hits": 0,
        }


def _serving_overlay(capacity=2):
    """Client 0, caching relay 1, origin holder 2 — one cluster."""
    overlay = MicroOverlay(seed=0)
    config = PeerConfig(cache_capacity=capacity)
    for node_id in (0, 1, 2):
        overlay.add_peer(node_id, config=config)
    overlay.wire_cluster(0, [0, 1, 2], edges=[(0, 1), (1, 2)],
                         category_map={7: 0})
    return overlay


def _retrieve(overlay, node_id, query_id, doc_id):
    """Make ``node_id`` retrieve ``doc_id`` (filling its cache)."""
    peer = overlay.peers[node_id]
    for other in (0, 1, 2):
        if other != node_id and other in peer.nrt.nodes_in(0):
            peer.nrt.remove_node(other)
    # Re-add whoever holds the doc so the query has somewhere to go.
    for holder in sorted(overlay.hooks.holders.get(doc_id, ())):
        if holder != node_id:
            peer.nrt.add(0, holder)
            break
    peer.start_query(query_id, 7, 1, target_doc_id=doc_id)
    overlay.run()


class TestPeerCachePolicies:
    def test_there_is_no_policy_option(self):
        """One policy: the knob is gone at every level, not ignored."""
        from repro.overlay.system import P2PSystemConfig

        for config in (PeerConfig, P2PSystemConfig):
            with pytest.raises(TypeError):
                config(cache_capacity=2, cache_policy="lfu")
        with pytest.raises(TypeError):
            DocumentCache(2, policy="lfu")
        assert "policy" not in DocumentCache(2).stats()

    def test_cache_stats_public_view(self):
        overlay = _serving_overlay(capacity=2)
        overlay.give_document(2, 100, [7])
        _retrieve(overlay, 1, 1, 100)
        stats = overlay.peers[1].cache_stats()
        assert stats["fills"] == 1
        assert stats["size"] == 1
        # A peer without caching still answers with zeroed stats.
        bare = MicroOverlay().add_peer(9)
        assert bare.cache_stats()["capacity"] == 0

    def test_served_hits_count_cache_answers(self):
        overlay = _serving_overlay(capacity=2)
        overlay.give_document(2, 100, [7])
        _retrieve(overlay, 1, 1, 100)  # node 1 caches doc 100
        _retrieve(overlay, 0, 2, 100)  # node 0 asks; node 1 serves from cache
        assert overlay.peers[1].cache_stats()["served_hits"] >= 1

    def test_eviction_deregisters_holder(self):
        overlay = _serving_overlay(capacity=1)
        for doc_id in (100, 101):
            overlay.give_document(2, doc_id, [7])
        _retrieve(overlay, 1, 1, 100)
        assert 1 in overlay.hooks.holders[100]
        _retrieve(overlay, 1, 2, 101)  # evicts 100
        assert 1 not in overlay.hooks.holders.get(100, set())
        assert 1 in overlay.hooks.holders[101]

    def test_eviction_races_in_flight_query(self):
        """A query already flying toward a cached copy must still resolve
        after that copy is evicted: the evicting node no longer holds the
        document when the query lands, so it re-routes via the holder
        directory to the origin instead of failing or serving a ghost."""
        overlay = _serving_overlay(capacity=1)
        for doc_id in (100, 101):
            overlay.give_document(2, doc_id, [7])
        _retrieve(overlay, 1, 1, 100)  # node 1 caches doc 100

        client = overlay.peers[0]
        for other in (1, 2):
            client.nrt.remove_node(other)
        client.nrt.add(0, 1)  # client only ever targets the cacher
        # Node 1's retrieval of 101 needs two hops (request + response) to
        # evict 100; the client's one-hop query for 100 departs between
        # those hops, so it is in flight when the eviction lands and
        # arrives at node 1 just after.
        overlay.sim.schedule(
            0.0,
            lambda: overlay.peers[1].start_query(
                51, 7, 1, target_doc_id=101
            ),
        )
        overlay.sim.schedule(
            0.08, lambda: client.start_query(50, 7, 1, target_doc_id=100)
        )
        overlay.run()

        answers = [
            response
            for peer_id, response in overlay.hooks.responses
            if peer_id == 0 and response.query_id == 50
        ]
        assert len(answers) == 1
        assert answers[0].responder_id == 2  # served by the origin
        assert not [
            failure for failure in overlay.hooks.failures if failure[1] == 50
        ]
