"""Tests for the ack/retry channel, failure detector, and query failover."""

import numpy as np
import pytest

from repro import obs
from repro.overlay import messages as m
from repro.overlay.peer import DocInfo, PeerConfig
from repro.overlay.query_protocol import SEEN_QUERY_CAPACITY
from repro.reliability import (
    RELIABLE_KINDS,
    FailureDetector,
    ReliabilityConfig,
    ReliableChannel,
)
from repro.reliability.channel import JITTER_FRACTION
from repro.sim.engine import Simulator
from repro.sim.network import Network
from tests.helpers import MicroOverlay

FAST = ReliabilityConfig(
    enabled=True,
    ack_timeout=0.5,
    max_backoff=2.0,
    max_attempts=3,
    query_deadline=1.5,
    query_attempts=3,
    probe_timeout=0.5,
    suspicion_threshold=2,
)


def _delta(name: str):
    counter = obs.counter(name)
    start = counter.value

    def read() -> float:
        return counter.value - start

    return read


class _Endpoint:
    """Minimal channel user: applies non-duplicate messages, honours acks."""

    def __init__(
        self, node_id: int, network: Network, config: ReliabilityConfig,
        drop_acks: bool = False,
    ) -> None:
        self.channel = ReliableChannel(node_id, network, config)
        self.applied: list[tuple[str, int]] = []
        self.drop_acks = drop_acks
        network.register(node_id, self.handle)

    def handle(self, message) -> None:
        if message.kind == "ack":
            if not self.drop_acks:
                self.channel.handle_ack(message.payload, message.src)
            return
        if self.channel.observe(message):
            return
        self.applied.append((message.kind, message.delivery_id))


class TestReliableChannel:
    def test_ack_settles_delivery(self):
        sim = Simulator()
        network = Network(sim)
        sender = _Endpoint(0, network, FAST)
        receiver = _Endpoint(1, network, FAST)
        retries = _delta("reliability.retries")
        sender.channel.send(1, "publish_request", "payload")
        sim.run()
        assert receiver.applied == [("publish_request", 1)]
        assert sender.channel.outstanding() == 0
        assert retries() == 0

    def test_retransmits_until_destination_appears(self):
        sim = Simulator()
        network = Network(sim)
        sender = _Endpoint(0, network, FAST)
        retries = _delta("reliability.retries")
        sender.channel.send(1, "transfer_request", "payload")
        # The receiver registers only after the first attempt was dropped.
        receiver_box = []
        sim.schedule(0.6, lambda: receiver_box.append(_Endpoint(1, network, FAST)))
        sim.run()
        assert receiver_box[0].applied == [("transfer_request", 1)]
        assert sender.channel.outstanding() == 0
        assert retries() >= 1

    def test_gives_up_after_max_attempts(self):
        sim = Simulator()
        network = Network(sim)
        gave_up = []
        channel = ReliableChannel(
            0, network, FAST, on_give_up=lambda dst, kind: gave_up.append((dst, kind))
        )
        network.register(0, lambda message: None)
        retries = _delta("reliability.retries")
        gave_up_counter = _delta("reliability.gave_up")
        channel.send(9, "publish_reply", "payload")  # node 9 never exists
        sim.run()
        assert channel.outstanding() == 0
        assert gave_up == [(9, "publish_reply")]
        assert retries() == FAST.max_attempts - 1
        assert gave_up_counter() == 1

    def test_lost_acks_cause_suppressed_duplicates(self):
        sim = Simulator()
        network = Network(sim)
        sender = _Endpoint(0, network, FAST, drop_acks=True)
        receiver = _Endpoint(1, network, FAST)
        duplicates = _delta("reliability.duplicates_suppressed")
        sender.channel.send(1, "reassign_notice", "payload")
        sim.run()
        # Applied exactly once; every retransmission was re-acked but
        # suppressed before reaching the handler.
        assert receiver.applied == [("reassign_notice", 1)]
        assert duplicates() == FAST.max_attempts - 1

    def test_backoff_is_capped_exponential(self):
        sim = Simulator()
        network = Network(sim)
        channel = ReliableChannel(0, network, FAST)
        assert channel._attempt_timeout(0) == 0.5
        assert channel._attempt_timeout(1) == 1.0
        assert channel._attempt_timeout(2) == 2.0  # capped at max_backoff
        assert channel._attempt_timeout(5) == 2.0

    def test_jitter_drawn_only_on_retries(self):
        class CountingRng:
            calls = 0

            def random(self):
                self.calls += 1
                return 0.5

        rng = CountingRng()
        sim = Simulator()
        channel = ReliableChannel(0, Network(sim), FAST, jitter_rng=rng)
        first = channel._attempt_timeout(0)
        assert rng.calls == 0  # first attempts never consult the stream
        retry = channel._attempt_timeout(1)
        assert rng.calls == 1
        assert retry == pytest.approx(1.0 * (1.0 + JITTER_FRACTION * 0.5))
        assert first == 0.5

    def test_query_kind_is_not_reliable(self):
        # Query requests get end-to-end failover instead of same-target
        # retries; acks/pings/gossip are fire-and-forget by design.
        assert "query" not in RELIABLE_KINDS
        assert "ack" not in RELIABLE_KINDS
        assert "gossip" not in RELIABLE_KINDS
        assert "publish_request" in RELIABLE_KINDS
        assert "transfer_data" in RELIABLE_KINDS

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(ack_timeout=0.0)
        with pytest.raises(ValueError):
            ReliabilityConfig(max_attempts=0)
        with pytest.raises(ValueError):
            ReliabilityConfig(query_attempts=0)


class TestFailureDetector:
    def test_suspicion_threshold_and_rehabilitation(self):
        detector = FailureDetector(0, Network(Simulator()), FAST)
        cleared = _delta("reliability.suspicions_cleared")
        detector.note_missed(5)
        assert not detector.is_suspect(5)
        detector.note_missed(5)
        assert detector.is_suspect(5)
        detector.note_alive(5)  # a suspect that speaks is rehabilitated
        assert not detector.is_suspect(5)
        assert cleared() == 1

    def test_probe_timeout_counts_a_miss(self):
        sim = Simulator()
        network = Network(sim)
        network.register(0, lambda message: None)
        config = ReliabilityConfig(enabled=True, suspicion_threshold=1)
        detector = FailureDetector(0, network, config)
        detector.probe(7)  # node 7 does not exist
        sim.run()
        assert detector.is_suspect(7)

    def test_pong_clears_pending_probe(self):
        overlay = _reliable_overlay()
        peer = overlay.peers[0]
        peer.detector.probe(1)
        overlay.run()
        assert not peer.detector.is_suspect(1)
        assert not peer.detector._pending


def _reliable_overlay(config: ReliabilityConfig = FAST, **network_kwargs):
    """Three peers in cluster 4 with reliability enabled everywhere."""
    overlay = MicroOverlay(**network_kwargs)
    peer_config = PeerConfig(reliability=config)
    for node_id, capacity in ((0, 1.0), (1, 3.0), (2, 9.0)):
        overlay.add_peer(node_id, capacity=capacity, config=peer_config)
    overlay.wire_cluster(
        4, [0, 1, 2], edges=[(0, 1), (1, 2), (0, 2)], category_map={5: 4}
    )
    return overlay


class TestPeerIntegration:
    def test_reliable_kinds_route_through_channel(self):
        overlay = _reliable_overlay()
        sends = _delta("reliability.sends")
        acked = _delta("reliability.acked")
        overlay.peers[1].membership.publish_document(
            DocInfo(doc_id=100, categories=(5,), size_bytes=1000)
        )
        overlay.run()
        assert sends() >= 1  # publish_request went through the channel
        assert acked() == sends()
        assert all(p.channel.outstanding() == 0 for p in overlay.peers.values())

    def test_exactly_once_under_ack_loss(self):
        overlay = _reliable_overlay(rng=np.random.default_rng(3))
        overlay.network.set_kind_drop_probability("ack", 0.8)
        duplicates = _delta("reliability.duplicates_suppressed")
        for doc_id in range(200, 210):
            overlay.peers[1].membership.publish_document(
                DocInfo(doc_id=doc_id, categories=(5,), size_bytes=1000)
            )
        overlay.run()
        assert duplicates() > 0  # retransmissions happened...
        for peer in overlay.peers.values():  # ...but none re-applied
            assert all(
                count == 1
                for count in peer.reliable_application_counts().values()
            )

    def test_give_up_feeds_the_failure_detector(self):
        config = ReliabilityConfig(
            enabled=True, ack_timeout=0.5, max_attempts=2, suspicion_threshold=1
        )
        overlay = _reliable_overlay(config)
        overlay.network.crash(2)
        overlay.peers[0]._send(2, "publish_request", "payload")
        overlay.run()
        assert overlay.peers[0].detector.is_suspect(2)
        assert 2 in overlay.peers[0].suspects()

    def test_seen_queries_window_is_bounded(self):
        overlay = MicroOverlay()
        peer_config = PeerConfig(reliability=FAST)
        for node_id in (0, 1):
            overlay.add_peer(node_id, config=peer_config)
        overlay.wire_cluster(4, [0, 1], edges=[(0, 1)], category_map={5: 4})
        overlay.give_document(1, 99, [5])
        for query_id in range(SEEN_QUERY_CAPACITY + 1):
            overlay.network.transmit(
                0,
                1,
                "query",
                m.QueryMessage(
                    query_id=query_id,
                    requester_id=0,
                    category_id=5,
                    remaining=1,
                    hops=1,
                    target_cluster=4,
                ),
            )
        overlay.run()
        assert overlay.peers[1].queries.seen_query_count() == SEEN_QUERY_CAPACITY


class TestQueryFailover:
    def test_failover_reaches_a_live_member(self):
        overlay = _reliable_overlay()
        overlay.give_document(1, 99, [5])
        overlay.give_document(2, 99, [5])
        overlay.network.crash(1)
        requester = overlay.peers[0]
        requester.start_query(query_id=7, category_id=5, m_results=1)
        overlay.run()
        answered = [r for _node, r in overlay.hooks.responses if r.query_id == 7]
        assert answered, overlay.hooks.failures
        assert not overlay.hooks.failures
        assert not requester.queries.in_flight()  # settled and cleaned up

    def test_deadline_exhaustion_fails_the_query(self):
        overlay = _reliable_overlay()
        requester = overlay.peers[0]
        # The requester only knows the (crashed) node 1 for cluster 4.
        requester.nrt.remove(4, 0)
        requester.nrt.remove(4, 2)
        overlay.network.crash(1)
        failovers = _delta("reliability.query_failovers")
        requester.start_query(query_id=8, category_id=5, m_results=1)
        overlay.run()
        assert (0, 8, "deadline-exhausted") in overlay.hooks.failures
        assert failovers() == FAST.query_attempts - 1
        assert not requester.queries.in_flight()

    def test_no_known_member_fails_immediately(self):
        overlay = _reliable_overlay()
        requester = overlay.peers[0]
        requester.dcrt.set(6, 9)  # category 6 -> cluster 9, nobody known
        requester.start_query(query_id=9, category_id=6, m_results=1)
        overlay.run()
        assert (0, 9, "no-known-member") in overlay.hooks.failures


class TestSuspectAwareness:
    def test_probe_loss_chain_marks_leader_suspect_then_reelects(self):
        overlay = _reliable_overlay(rng=np.random.default_rng(0))
        for _ in range(2):
            for peer in overlay.peers.values():
                peer.adaptation.announce_capabilities()
            overlay.run()
        for peer in overlay.peers.values():
            peer.adaptation.elect_leaders()
        prober = overlay.peers[0]
        assert prober.believed_leader[4] == 2
        # Every probe to the leader is lost; each timeout is a miss.
        overlay.network.set_kind_drop_probability("leader_probe", 0.999)
        for round_id in (1, 2, 3):
            prober.adaptation.probe_leader(4, round_id=round_id)
            overlay.run()
        assert prober.detector.is_suspect(2)
        # Re-election strikes the suspect: node 1 (next capacity) wins.
        prober.adaptation.elect_leaders()
        assert prober.believed_leader[4] == 1

    def test_election_ignores_suspicion_that_empties_the_pool(self):
        overlay = _reliable_overlay()
        prober = overlay.peers[0]
        for _ in range(2):
            for peer in overlay.peers.values():
                peer.adaptation.announce_capabilities()
            overlay.run()
        for node_id in (0, 1, 2):
            prober.detector.note_missed(node_id)
            prober.detector.note_missed(node_id)
        assert prober.suspects() == {0, 1, 2}
        prober.adaptation.elect_leaders()
        # Everyone is suspect -> suspicion is ignored, not election-fatal.
        assert prober.believed_leader[4] == 2

    def test_heartbeat_round_probes_and_rehabilitates(self):
        overlay = _reliable_overlay()
        peer = overlay.peers[0]
        peer.detector.note_missed(1)
        peer.detector.note_missed(1)
        assert peer.detector.is_suspect(1)
        probes = _delta("reliability.probes")
        peer.heartbeat_once()
        overlay.run()
        assert probes() >= 1
        assert not peer.detector.is_suspect(1)  # its pong cleared suspicion


class TestLossExperiment:
    SCALE = 0.03

    def test_reliability_meets_success_target_at_ten_percent_loss(self):
        from repro.experiments.loss import measure

        reliable = measure(0.10, True, scale=self.SCALE, seed=7, n_queries=300)
        unreliable = measure(0.10, False, scale=self.SCALE, seed=7, n_queries=300)
        assert reliable.success_rate >= 0.99
        # The unreliable baseline must be measurably worse.
        assert unreliable.success_rate <= reliable.success_rate - 0.05
        assert reliable.retries > 0
        assert unreliable.retries == 0

    def test_zero_loss_identical_with_reliability_on_or_off(self):
        from repro.experiments.loss import measure

        off = measure(0.0, False, scale=self.SCALE, seed=7, n_queries=200)
        on = measure(0.0, True, scale=self.SCALE, seed=7, n_queries=200)
        assert on.success_rate == off.success_rate
        assert on.p99_latency == off.p99_latency
        assert on.mean_latency == off.mean_latency
        assert on.retries == 0
        assert on.query_failovers == 0

    def test_run_and_format(self):
        from repro.experiments import loss

        result = loss.run(scale=self.SCALE, n_queries=60, drops=(0.0, 0.1))
        assert len(result.rows) == 4
        text = loss.format_result(result)
        assert "reliability" in text
        assert result.row(0.1, True).success_rate >= result.row(
            0.1, False
        ).success_rate
