"""Tests for repro.sim.rng — reproducible stream management."""

from repro.sim.rng import RngRegistry, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "workload") == derive_seed(42, "workload")

    def test_name_sensitivity(self):
        assert derive_seed(42, "workload") != derive_seed(42, "protocol")

    def test_seed_sensitivity(self):
        assert derive_seed(41, "workload") != derive_seed(42, "workload")

    def test_64_bit_range(self):
        seed = derive_seed(0, "x")
        assert 0 <= seed < 2**64


class TestRngRegistry:
    def test_same_name_same_generator(self):
        rngs = RngRegistry(1)
        assert rngs.stream("a") is rngs.stream("a")

    def test_streams_reproducible_across_registries(self):
        a = RngRegistry(7).stream("workload").random(5)
        b = RngRegistry(7).stream("workload").random(5)
        assert a.tolist() == b.tolist()

    def test_streams_independent(self):
        rngs = RngRegistry(7)
        # Consuming one stream must not perturb another.
        first = RngRegistry(7).stream("b").random(3)
        rngs.stream("a").random(1000)
        second = rngs.stream("b").random(3)
        assert first.tolist() == second.tolist()
