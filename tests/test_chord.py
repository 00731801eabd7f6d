"""Tests for the Chord DHT baseline."""

import math

import numpy as np
import pytest

from repro.baselines.chord import ChordNetwork
from repro.core.fairness import jain_fairness
from repro.model.zipf import ZipfSampler


@pytest.fixture(scope="module")
def ring():
    network = ChordNetwork(range(200), bits=20)
    network.store_all(range(2000))
    return network


class TestRingGeometry:
    def test_all_nodes_placed(self, ring):
        assert len(ring.nodes) == 200

    def test_successor_wraps(self, ring):
        top = max(ring.nodes)
        successor = ring.successor(top + 1)
        assert successor == min(ring.nodes)

    def test_successor_of_node_id_is_itself(self, ring):
        node_id = next(iter(ring.nodes))
        assert ring.successor(node_id) == node_id

    def test_finger_tables_complete(self, ring):
        for node in ring.nodes.values():
            assert len(node.fingers) == ring.bits

    def test_fingers_are_successors_of_powers(self, ring):
        node_id, node = next(iter(ring.nodes.items()))
        for i, finger in enumerate(node.fingers):
            expected = ring.successor((node_id + (1 << i)) % ring.size)
            assert finger == expected

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            ChordNetwork(range(5), bits=4)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ChordNetwork([])


class TestStorage:
    def test_every_doc_stored_once(self, ring):
        stored = [d for node in ring.nodes.values() for d in node.keys]
        assert sorted(stored) == list(range(2000))

    def test_store_is_deterministic(self):
        a = ChordNetwork(range(50), bits=20)
        b = ChordNetwork(range(50), bits=20)
        assert a.store(123) == b.store(123)


class TestLookup:
    def test_finds_correct_holder(self, ring):
        for doc_id in (0, 1, 999, 1999):
            holder, _hops = ring.lookup(0, doc_id)
            assert doc_id in ring.nodes[holder].keys or doc_id in {
                d for d in ring.nodes[holder].keys
            }

    def test_hops_logarithmic(self, ring):
        rng = np.random.default_rng(0)
        hops, _ = ring.run_queries(list(range(500)), rng)
        # O(log N): comfortably under 2 * log2(200) ~ 15.3.
        assert hops.mean() < 2 * math.log2(200)
        assert hops.max() <= 4 * ring.bits

    def test_lookup_from_any_start(self, ring):
        holders = set()
        for start in range(0, 200, 17):
            holder, _ = ring.lookup(start, 42)
            holders.add(holder)
        assert len(holders) == 1  # same key -> same holder from anywhere


class TestLoadBehaviour:
    def test_zipf_queries_unbalance_load(self):
        """The paper's criticism: hash placement ignores popularity, so a
        Zipf stream concentrates load on whoever holds the hot keys."""
        network = ChordNetwork(range(200), bits=20)
        network.store_all(range(2000))
        rng = np.random.default_rng(1)
        queries = ZipfSampler(2000, 0.8).sample(rng, 10_000)
        _, loads = network.run_queries(queries, rng)
        zipf_fairness = jain_fairness(list(loads.values()))

        network_uniform = ChordNetwork(range(200), bits=20)
        network_uniform.store_all(range(2000))
        uniform_queries = rng.integers(0, 2000, size=10_000)
        _, uniform_loads = network_uniform.run_queries(uniform_queries, rng)
        uniform_fairness = jain_fairness(list(uniform_loads.values()))

        assert zipf_fairness < uniform_fairness
        assert zipf_fairness < 0.5  # badly unbalanced under Zipf
