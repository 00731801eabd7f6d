"""Tests for the central-index (hybrid) baseline."""

import numpy as np
import pytest

from repro.baselines.hybrid import DIRECTORY_ID, HybridIndexNetwork


@pytest.fixture()
def network():
    net = HybridIndexNetwork(range(50))
    for doc_id in range(100):
        net.place_document(doc_id, [doc_id % 50])
    return net


class TestQueries:
    def test_found_in_two_hops(self, network):
        result = network.query(5, np.random.default_rng(0))
        assert result.found
        assert result.hops == 2
        assert result.responder == 5

    def test_missing_document(self, network):
        result = network.query(424242, np.random.default_rng(0))
        assert not result.found
        assert result.hops == 1  # the index was still consulted
        assert result.responder is None

    def test_directory_absorbs_every_query(self, network):
        rng = np.random.default_rng(1)
        network.run_queries(list(range(100)), rng)
        assert network.directory_load == 100

    def test_replica_load_balances(self):
        net = HybridIndexNetwork(range(10))
        net.place_document(1, [0, 1, 2, 3])
        rng = np.random.default_rng(2)
        results, loads = net.run_queries([1] * 400, rng)
        assert all(r.found for r in results)
        holder_loads = [loads[n] for n in range(4)]
        assert min(holder_loads) > 50  # roughly uniform over 4 replicas

    def test_directory_is_the_bottleneck(self, network):
        rng = np.random.default_rng(3)
        _, loads = network.run_queries(list(range(100)) * 3, rng)
        assert network.directory_load > max(loads.values())


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            HybridIndexNetwork([])

    def test_rejects_directory_collision(self):
        with pytest.raises(ValueError):
            HybridIndexNetwork([0, DIRECTORY_ID])

    def test_duplicate_registration_idempotent(self):
        net = HybridIndexNetwork(range(3))
        net.place_document(1, [0])
        net.place_document(1, [0])
        rng = np.random.default_rng(4)
        results, loads = net.run_queries([1] * 10, rng)
        assert loads[0] == 10  # only one holder despite double registration
