"""Tests for repro.sim.network — delivery, faults, accounting."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.network import Network


def _make(drop=0.0, rng=None, **kwargs):
    sim = Simulator()
    network = Network(sim, **kwargs)
    network.rng = rng
    network.set_drop_probability(drop)
    return sim, network


class TestDelivery:
    def test_message_delivered_with_latency(self):
        sim, network = _make(base_latency=0.1, bandwidth=None)
        received = []
        network.register(1, lambda msg: received.append((sim.now, msg.payload)))
        network.transmit(0, 1, "ping", "hello")
        sim.run()
        assert received == [(pytest.approx(0.1), "hello")]

    def test_size_adds_transfer_time(self):
        sim, network = _make(base_latency=0.1, bandwidth=1000.0)
        received = []
        network.register(1, lambda msg: received.append(sim.now))
        network.transmit(0, 1, "data", None, size_bytes=500)
        sim.run()
        assert received == [pytest.approx(0.6)]

    def test_latency_for(self):
        _, network = _make(base_latency=0.05, bandwidth=100.0)
        assert network.latency_for(10) == pytest.approx(0.15)

    def test_unregistered_destination_drops(self):
        sim, network = _make()
        network.transmit(0, 99, "ping", None)
        sim.run()
        assert network.stats.messages_dropped == 1
        assert network.stats.messages_delivered == 0

    def test_delivery_order_is_fifo_per_latency(self):
        sim, network = _make(base_latency=0.1, bandwidth=None)
        received = []
        network.register(1, lambda msg: received.append(msg.payload))
        network.transmit(0, 1, "a", 1)
        network.transmit(0, 1, "b", 2)
        sim.run()
        assert received == [1, 2]


class TestFaults:
    def test_crashed_destination_loses_messages(self):
        sim, network = _make()
        received = []
        network.register(1, lambda msg: received.append(msg))
        network.crash(1)
        network.transmit(0, 1, "ping", None)
        sim.run()
        assert received == []
        assert network.stats.messages_dropped == 1

    def test_crash_in_flight(self):
        # The destination dies while the message travels.
        sim, network = _make(base_latency=1.0, bandwidth=None)
        received = []
        network.register(1, lambda msg: received.append(msg))
        network.transmit(0, 1, "ping", None)
        sim.schedule(0.5, lambda: network.crash(1))
        sim.run()
        assert received == []
        assert network.stats.messages_dropped == 1

    def test_recover(self):
        sim, network = _make()
        received = []
        network.register(1, lambda msg: received.append(msg))
        network.crash(1)
        network.recover(1)
        network.transmit(0, 1, "ping", None)
        sim.run()
        assert len(received) == 1

    def test_crashed_source_cannot_send(self):
        sim, network = _make()
        received = []
        network.register(1, lambda msg: received.append(msg))
        network.register(0, lambda msg: None)
        network.crash(0)
        network.transmit(0, 1, "ping", None)
        sim.run()
        assert received == []

    def test_partition_blocks_cross_traffic(self):
        sim, network = _make()
        received = []
        network.register(1, lambda msg: received.append(msg.src))
        network.register(2, lambda msg: received.append(msg.src))
        network.set_partition([1], 1)
        network.set_partition([2], 2)
        network.transmit(1, 2, "x", None)
        sim.run()
        assert received == []
        network.heal_partitions()
        network.transmit(1, 2, "x", None)
        sim.run()
        assert received == [1]

    def test_same_partition_ok(self):
        sim, network = _make()
        received = []
        network.register(1, lambda msg: None)
        network.register(2, lambda msg: received.append(msg))
        network.set_partition([1, 2], 5)
        network.transmit(1, 2, "x", None)
        sim.run()
        assert len(received) == 1

    def test_random_drops(self):
        rng = np.random.default_rng(0)
        sim, network = _make(drop=0.5, rng=rng)
        received = []
        network.register(1, lambda msg: received.append(msg))
        for _ in range(200):
            network.transmit(0, 1, "x", None)
        sim.run()
        assert 50 < len(received) < 150

    def test_drop_probability_requires_rng(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Network(sim).set_drop_probability(0.5)


class TestAccounting:
    def test_byte_and_kind_counters(self):
        sim, network = _make()
        network.register(1, lambda msg: None)
        network.transmit(0, 1, "query", None, size_bytes=100)
        network.transmit(0, 1, "query", None, size_bytes=150)
        network.transmit(0, 1, "transfer", None, size_bytes=1000)
        sim.run()
        stats = network.stats
        assert stats.messages_sent == 3
        assert stats.bytes_sent == 1250
        assert stats.by_kind == {"query": 2, "transfer": 1}
        assert stats.bytes_by_kind == {"query": 250, "transfer": 1000}

    def test_is_alive(self):
        _, network = _make()
        network.register(1, lambda msg: None)
        assert network.is_alive(1)
        assert not network.is_alive(2)
        network.crash(1)
        assert not network.is_alive(1)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Network(sim, base_latency=-1)
        with pytest.raises(ValueError):
            Network(sim, bandwidth=0)
        with pytest.raises(ValueError):
            Network(sim).set_drop_probability(1.0)


class TestDropReasons:
    def test_dst_dead(self):
        sim, network = _make()
        network.transmit(0, 99, "ping", None)
        assert network.stats.drops_by_reason == {"dst-dead": 1}

    def test_src_crashed(self):
        sim, network = _make()
        network.register(0, lambda msg: None)
        network.register(1, lambda msg: None)
        network.crash(0)
        network.transmit(0, 1, "ping", None)
        assert network.stats.drops_by_reason == {"src-crashed": 1}

    def test_partitioned(self):
        sim, network = _make()
        network.register(1, lambda msg: None)
        network.register(2, lambda msg: None)
        network.set_partition([1], 1)
        network.set_partition([2], 2)
        network.transmit(1, 2, "x", None)
        assert network.stats.drops_by_reason == {"partitioned": 1}

    def test_random_loss(self):
        rng = np.random.default_rng(0)
        sim, network = _make(drop=0.5, rng=rng)
        network.register(1, lambda msg: None)
        for _ in range(50):
            network.transmit(0, 1, "x", None)
        sim.run()
        reasons = network.stats.drops_by_reason
        assert set(reasons) == {"random-loss"}
        assert reasons["random-loss"] == network.stats.messages_dropped

    def test_dead_at_delivery(self):
        sim, network = _make(base_latency=1.0, bandwidth=None)
        network.register(1, lambda msg: None)
        network.transmit(0, 1, "ping", None)
        sim.schedule(0.5, lambda: network.crash(1))
        sim.run()
        assert network.stats.drops_by_reason == {"dst-dead-at-delivery": 1}

    def test_reasons_sum_to_total(self):
        rng = np.random.default_rng(3)
        sim, network = _make(drop=0.3, rng=rng)
        network.register(1, lambda msg: None)
        network.transmit(0, 99, "x", None)  # dst-dead
        for _ in range(30):
            network.transmit(0, 1, "x", None)  # some random-loss
        sim.run()
        assert (
            sum(network.stats.drops_by_reason.values())
            == network.stats.messages_dropped
        )


class TestTracing:
    def test_send_deliver_drop_traced(self):
        from repro import obs

        obs.TRACE.clear()
        obs.TRACE.enable()
        try:
            sim, network = _make()
            network.register(1, lambda msg: None)
            network.transmit(0, 1, "query", None)
            network.transmit(0, 99, "query", None)
            sim.run()
        finally:
            obs.TRACE.disable()
        events = list(obs.TRACE)
        counts = Counter(event.kind for event in events)
        assert counts["msg_send"] == 2
        assert counts["msg_deliver"] == 1
        assert counts["msg_drop"] == 1
        drop = next(event for event in events if event.kind == "msg_drop")
        assert drop.fields["reason"] == "dst-dead"
        assert drop.fields["msg"] == "query"
        obs.TRACE.clear()

class TestEdgeCases:
    def test_unregister_mid_flight_drops_at_delivery(self):
        """A destination that *leaves* (unregisters) while a message is in
        flight loses it at delivery time, same as a crash would."""
        sim, network = _make(base_latency=1.0, bandwidth=None)
        received = []
        network.register(1, lambda msg: received.append(msg))
        network.transmit(0, 1, "ping", None)
        sim.schedule(0.5, lambda: network.unregister(1))
        sim.run()
        assert received == []
        assert network.stats.drops_by_reason == {"dst-dead-at-delivery": 1}

    def test_loss_ramp_single_step_zero_duration(self):
        """steps=1 with duration=0 is an immediate cliff, not an error."""
        rng = np.random.default_rng(0)
        sim, network = _make(drop=0.4, rng=rng)
        network.schedule_loss_ramp(0.0, duration=0.0, steps=1)
        sim.run()
        assert network.drop_probability == 0.0
        # And upward too: lands exactly on the target in one step.
        network.schedule_loss_ramp(0.25, duration=0.0, steps=1)
        sim.run()
        assert network.drop_probability == pytest.approx(0.25)

    def test_loss_ramp_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        _, network = _make(rng=rng)
        with pytest.raises(ValueError):
            network.schedule_loss_ramp(0.2, duration=0.5, steps=0)
        with pytest.raises(ValueError):
            network.schedule_loss_ramp(0.2, duration=-1.0, steps=2)

    def test_kind_drop_override_targets_one_kind(self):
        rng = np.random.default_rng(1)
        sim, network = _make(rng=rng)
        received = {"ack": 0, "data": 0}
        network.register(1, lambda msg: received.__setitem__(
            msg.kind, received[msg.kind] + 1
        ))
        network.set_kind_drop_probability("ack", 0.9)
        for _ in range(40):
            network.transmit(0, 1, "ack", None)
            network.transmit(0, 1, "data", None)
        sim.run()
        assert received["ack"] < 40  # acks suffer the override...
        assert received["data"] == 40  # ...other kinds keep the default
        assert set(network.stats.drops_by_reason) == {"random-loss"}

    def test_kind_drop_override_can_shield_a_kind(self):
        rng = np.random.default_rng(2)
        sim, network = _make(drop=0.9, rng=rng)
        received = []
        network.register(1, lambda msg: received.append(msg.kind))
        network.set_kind_drop_probability("ack", 0.0)
        for _ in range(40):
            network.transmit(0, 1, "ack", None)
        sim.run()
        assert len(received) == 40  # the override shields acks entirely

    def test_kind_drop_validation_and_clear(self):
        rng = np.random.default_rng(0)
        _, network = _make(rng=rng)
        with pytest.raises(ValueError):
            network.set_kind_drop_probability("ack", 1.0)
        _, bare = _make()  # no rng
        with pytest.raises(ValueError):
            bare.set_kind_drop_probability("ack", 0.5)
        network.set_kind_drop_probability("ack", 0.5)
        network.clear_kind_drop_probabilities()
        assert network._kind_drop == {}


class TestAliveAmong:
    """``alive_among`` is ``is_alive`` over a set, by set algebra."""

    ids = st.sets(st.integers(0, 15))

    @given(handlers=ids, crashed=ids, holders=ids)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_node_by_node_filter(self, handlers, crashed, holders):
        _, network = _make()
        for node_id in handlers:
            network.register(node_id, lambda msg: None)
        for node_id in crashed:  # ids never registered among them
            network.crash(node_id)
        expected = {n for n in holders if network.is_alive(n)}
        for asked in (holders, frozenset(holders), dict.fromkeys(holders).keys()):
            answer = network.alive_among(asked)
            assert answer == expected
            if expected == holders:
                assert answer is asked  # all alive: the set itself, no copy

    def test_departed_and_recovered_nodes(self):
        _, network = _make()
        for node_id in (1, 2, 3):
            network.register(node_id, lambda msg: None)
        network.crash(2)
        network.unregister(3)
        assert network.alive_among({1, 2, 3, 4}) == {1}
        network.recover(2)
        assert network.alive_among({1, 2}) == {1, 2}
        assert network.alive_among(frozenset()) == set()
