"""Tests for the ack/retry channel, failure detector, and query failover."""

import numpy as np
import pytest

from repro import obs
from repro.overlay import messages as m
from repro.overlay.peer import DocInfo, PeerConfig
from repro.model.workload import make_query_workload
from repro.overlay.query_protocol import SEEN_QUERY_CAPACITY, SEEN_QUERY_TTL
from repro.reliability import FailureDetector, ReliabilityConfig, ReliableChannel
from repro.reliability.channel import JITTER_FRACTION
from repro.sim.engine import Simulator
from repro.sim.network import Message, Network
from repro.transport import RELIABLE_KINDS
from tests.helpers import MicroOverlay, build_live_system, patch_method

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
        assert not sender.channel._outstanding
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
        assert not sender.channel._outstanding
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
        assert not channel._outstanding
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
        # Queries and their answers get end-to-end failover instead of
        # same-target retries, transfers the replica loop or the group
        # deadline; acks/pings/gossip are fire-and-forget by design.
        for kind in ("query", "query_response", "ack", "gossip"):
            assert kind not in RELIABLE_KINDS
        for kind in ("transfer_request", "transfer_data"):
            assert kind not in RELIABLE_KINDS
        assert "publish_request" in RELIABLE_KINDS

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
        assert 5 not in detector.suspects
        detector.note_missed(5)
        assert 5 in detector.suspects
        detector.note_alive(5)  # a suspect that speaks is rehabilitated
        assert 5 not in detector.suspects
        assert cleared() == 1

    def test_probe_timeout_counts_a_miss(self):
        sim = Simulator()
        network = Network(sim)
        network.register(0, lambda message: None)
        config = ReliabilityConfig(enabled=True, suspicion_threshold=1)
        detector = FailureDetector(0, network, config)
        detector.probe(7)  # node 7 does not exist
        sim.run()
        assert 7 in detector.suspects

    def test_pong_clears_pending_probe(self):
        overlay = _reliable_overlay()
        peer = overlay.peers[0]
        peer.detector.probe(1)
        overlay.run()
        assert 1 not in peer.detector.suspects
        assert not peer.detector._pending

    def test_a_detector_that_never_probed_ignores_a_stray_pong(self):
        detector = FailureDetector(0, Network(Simulator()), FAST)
        # The evidence sets are built on first write; a pong nobody asked
        # for, a departure and a crash write none.
        detector.handle_pong(m.Pong(probe_id=3), 5)
        detector.forget(5)
        detector.clear_failure_state()
        assert not detector._pending and not detector.suspects
        assert type(detector._pending) is frozenset


def _reliable_overlay(config: ReliabilityConfig = FAST):
    """Three peers in cluster 4 with reliability enabled everywhere."""
    overlay = MicroOverlay()
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
        assert all(not p.channel._outstanding for p in overlay.peers.values())

    def test_exactly_once_under_ack_loss(self):
        overlay = _reliable_overlay()
        overlay.network.rng = np.random.default_rng(3)
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
        assert 2 in overlay.peers[0].detector.suspects
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


def _window_overlay():
    """Peer 1 serves category 5; peer 0 collects its answers."""
    overlay = MicroOverlay()
    for node_id in (0, 1):
        overlay.add_peer(node_id)
    overlay.wire_cluster(4, [0, 1], edges=[], category_map={5: 4})
    overlay.give_document(1, 99, [5])
    return overlay


def _arrive(overlay, at, query_ids, attempt=0):
    """Deliver one ``query`` per id to peer 1 at transport time ``at``."""

    def send():
        for query_id in query_ids:
            overlay.network.transmit(
                0, 1, "query",
                m.QueryMessage(
                    query_id=query_id, requester_id=0, category_id=5,
                    remaining=1, hops=1, target_cluster=4, attempt=attempt,
                ),
            )

    overlay.sim.schedule_at(at, send)
    overlay.run()


def _gauge_delta():
    gauge = obs.gauge("overlay.seen_query_entries")
    start = gauge.value
    return lambda: gauge.value - start


class TestSeenQueryWindow:
    """The Section 3.3 idQ loop-detection window expires by transport time."""

    def test_only_recent_ids_survive_two_ttls(self):
        gauge = _gauge_delta()
        overlay = _window_overlay()
        queries = overlay.peers[1].queries
        _arrive(overlay, 0.0, range(0, 10))
        _arrive(overlay, 0.75 * SEEN_QUERY_TTL, range(10, 20))
        assert queries.seen_query_count() == 20
        _arrive(overlay, 1.5 * SEEN_QUERY_TTL, range(20, 30))
        assert queries.seen_query_count() == 30
        _arrive(overlay, 2.6 * SEEN_QUERY_TTL, range(30, 40))
        assert queries.seen_query_count() == 20  # ids 0-19 are forgotten
        assert gauge() == 20
        served = len(overlay.hooks.responses)
        _arrive(overlay, 2.7 * SEEN_QUERY_TTL, [5, 25, 35])
        assert len(overlay.hooks.responses) == served + 1  # only id 5 is new
        # A window older than two TTLs holds nothing seen within one.
        _arrive(overlay, 10 * SEEN_QUERY_TTL, [50])
        assert queries.seen_query_count() == 1
        assert gauge() == 1

    def test_duplicates_are_dropped_and_higher_attempts_pass(self):
        overlay = _window_overlay()
        answers = overlay.hooks.responses
        _arrive(overlay, 0.0, [7], attempt=1)
        assert len(answers) == 1
        _arrive(overlay, 0.5 * SEEN_QUERY_TTL, [7], attempt=1)
        _arrive(overlay, 0.9 * SEEN_QUERY_TTL, [7], attempt=0)
        assert len(answers) == 1
        # Across a rotation the id is still known: last seen under a TTL ago.
        _arrive(overlay, 1.2 * SEEN_QUERY_TTL, [7], attempt=1)
        assert len(answers) == 1
        _arrive(overlay, 1.3 * SEEN_QUERY_TTL, [7], attempt=2)
        assert len(answers) == 2
        _arrive(overlay, 1.4 * SEEN_QUERY_TTL, [7], attempt=2)
        assert len(answers) == 2

    def test_gauge_is_the_windows_sum_through_rotation_crash_and_power_loss(self):
        gauge = _gauge_delta()
        _, system = build_live_system(scale=0.01, seed=3)
        peers = list(system.peers.values())

        def windows():
            return sum(peer.queries.seen_query_count() for peer in peers)

        workload = make_query_workload(system.instance, 500, seed=3)
        system.run_workload(workload)
        assert gauge() == windows() > 0
        fullest = max(peers, key=lambda peer: peer.queries.seen_query_count())
        system.crash_node(peers[0].node_id)
        assert gauge() == windows()
        system.power_loss(fullest.node_id)
        assert fullest.queries.seen_query_count() == 0
        assert gauge() == windows()
        # Spread over more than a TTL, so every window rotates.
        spread = 1.5 * SEEN_QUERY_TTL / 500
        system.run_workload(
            make_query_workload(system.instance, 500, seed=4), query_interval=spread
        )
        assert gauge() == windows()


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
        assert not requester.queries._attempts  # settled and cleaned up

    def test_deadline_exhaustion_fails_the_query(self):
        overlay = _reliable_overlay()
        requester = overlay.peers[0]
        # The requester only knows the (crashed) node 1 for cluster 4.
        requester.nrt.remove_node(0)
        requester.nrt.remove_node(2)
        overlay.network.crash(1)
        failovers = _delta("reliability.query_failovers")
        requester.start_query(query_id=8, category_id=5, m_results=1)
        overlay.run()
        assert (0, 8, "deadline-exhausted") in overlay.hooks.failures
        assert failovers() == FAST.query_attempts - 1
        assert not requester.queries._attempts

    def test_answer_costs_no_ack_and_no_channel_send(self):
        overlay = _reliable_overlay()
        overlay.give_document(1, 99, [5])
        overlay.give_document(2, 99, [5])
        sends = _delta("reliability.sends")
        overlay.peers[0].start_query(
            query_id=10, category_id=5, m_results=1, target_doc_id=99
        )
        overlay.run()
        assert [r.query_id for _node, r in overlay.hooks.responses] == [10]
        assert overlay.network.stats.by_kind.get("ack", 0) == 0
        assert sends() == 0

    def test_later_attempt_is_served_where_an_earlier_one_was_seen(self):
        overlay = _reliable_overlay()
        overlay.give_document(1, 99, [5])

        def ask(attempt: int) -> None:
            overlay.network.transmit(
                0,
                1,
                "query",
                m.QueryMessage(
                    query_id=11,
                    requester_id=0,
                    category_id=5,
                    remaining=1,
                    hops=1,
                    target_cluster=4,
                    attempt=attempt,
                ),
            )
            overlay.run()

        def answers() -> int:
            return len(overlay.hooks.responses)

        ask(1)
        assert answers() == 1
        ask(1)  # the same attempt again is a loop
        assert answers() == 1
        ask(2)  # a failover attempt is served
        assert answers() == 2
        ask(1)  # an older attempt arriving late is a loop too
        assert answers() == 2

    def test_failover_revisits_the_only_known_member(self):
        # The requester knows one member of cluster 4, which does not hold
        # the category and forwards to its neighbour; the neighbour is down
        # for the first attempt.  The failover goes to the same member,
        # which must forward again rather than drop its own query id.
        overlay = MicroOverlay()
        config = PeerConfig(reliability=FAST)
        for node_id in (0, 1, 2):
            overlay.add_peer(node_id, config=config)
        overlay.wire_cluster(4, [1, 2], edges=[(1, 2)], category_map={5: 4})
        overlay.give_document(2, 99, [5])
        requester = overlay.peers[0]
        requester.nrt.add(4, 1)
        overlay.network.crash(2)
        overlay.sim.schedule(1.0, lambda: overlay.network.recover(2))
        failovers = _delta("reliability.query_failovers")
        requester.start_query(query_id=12, category_id=5, m_results=1)
        overlay.run()
        assert not overlay.hooks.failures
        assert [r.query_id for _node, r in overlay.hooks.responses] == [12]
        assert failovers() == 1

    def test_no_known_member_fails_immediately(self):
        overlay = _reliable_overlay()
        requester = overlay.peers[0]
        requester.dcrt.set(6, 9)  # category 6 -> cluster 9, nobody known
        requester.start_query(query_id=9, category_id=6, m_results=1)
        overlay.run()
        assert (0, 9, "no-known-member") in overlay.hooks.failures


class TestSuspectAwareness:
    def test_probe_loss_chain_marks_leader_suspect_then_reelects(self):
        overlay = _reliable_overlay()
        overlay.network.rng = np.random.default_rng(0)
        for _ in range(2):
            for peer in overlay.peers.values():
                peer.adaptation.announce_capabilities()
            overlay.run()
        for peer in overlay.peers.values():
            peer.adaptation.elect_leaders()
        prober = overlay.peers[0]
        assert prober.believed_leader[4] == 2
        # Every ping to the leader is lost; each probe timeout is a miss.
        overlay.network.set_kind_drop_probability("ping", 0.999)
        for _ in range(FAST.suspicion_threshold):
            assert 2 not in prober.detector.suspects
            prober.detector.probe(2)
            overlay.run()
        assert 2 in prober.detector.suspects
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
        assert 1 in peer.detector.suspects
        probes = _delta("reliability.probes")
        peer.heartbeat_once()
        overlay.run()
        assert probes() >= 1
        assert 1 not in peer.detector.suspects  # its pong cleared suspicion


class TestLossExperiment:
    SCALE = 0.03

    def test_reliability_meets_success_target_at_ten_percent_loss(
        self, monkeypatch
    ):
        from repro.experiments import loss

        monkeypatch.setattr(loss, "N_QUERIES", 300)
        reliable = loss.measure(0.10, True, scale=self.SCALE, seed=7)
        unreliable = loss.measure(0.10, False, scale=self.SCALE, seed=7)
        assert reliable.success_rate >= 0.99
        # The unreliable baseline must be measurably worse.
        assert unreliable.success_rate <= reliable.success_rate - 0.05
        assert reliable.query_failovers > 0
        assert unreliable.retries == 0

    def test_zero_loss_identical_with_reliability_on_or_off(self, monkeypatch):
        from repro.experiments import loss

        monkeypatch.setattr(loss, "N_QUERIES", 200)
        off = loss.measure(0.0, False, scale=self.SCALE, seed=7)
        on = loss.measure(0.0, True, scale=self.SCALE, seed=7)
        assert on.success_rate == off.success_rate
        assert on.p99_latency == off.p99_latency
        assert on.mean_latency == off.mean_latency
        assert on.retries == 0
        assert on.query_failovers == 0

    def test_run_and_format(self, monkeypatch):
        from repro.experiments import loss

        monkeypatch.setattr(loss, "N_QUERIES", 60)
        monkeypatch.setattr(loss, "DROP_SETTINGS", (0.0, 0.1))
        result = loss.run(scale=self.SCALE)
        assert len(result.rows) == 4
        text = loss.format_result(result)
        assert "reliability" in text
        assert result.row(0.1, True).success_rate >= result.row(
            0.1, False
        ).success_rate


class TestProbeSchedule:
    """The round-robin direct probe, the heard skip and indirect probing."""

    def test_round_probes_one_slot_and_skips_the_recently_heard(self):
        overlay = _reliable_overlay()
        prober = overlay.peers[0]
        probes = _delta("reliability.probes")
        prober.heartbeat_once()
        overlay.run()
        assert probes() == 1  # one slot of the pool {1, 2}
        assert prober.detector._pool == {1, 2}
        # Both pool members speak before the next round: nothing to probe.
        for node_id in (1, 2):
            overlay.peers[node_id].detector.probe(0)
        overlay.run()
        prober.heartbeat_once()
        overlay.run()
        assert probes() == 3  # the two probes of node 0 only
        # Nobody spoke since that round, so the next slot is probed.
        prober.heartbeat_once()
        overlay.run()
        assert probes() == 4

    def test_every_contact_gets_a_slot_each_pass(self, monkeypatch):
        overlay = _reliable_overlay()
        prober = overlay.peers[0]
        probed = []
        send = prober.detector._send_ping
        patch_method(
            monkeypatch, prober.detector, "_send_ping",
            lambda dst, ping: (probed.append(dst), send(dst, ping)),
        )
        for _ in range(4):
            prober.heartbeat_once()
            overlay.run()
            # Forget the pong, so the heard skip does not hide a slot.
            prober.detector._heard.clear()
        assert sorted(probed[:2]) == [1, 2] and sorted(probed[2:]) == [1, 2]

    def test_lost_direct_ping_is_rescued_by_a_helper(self):
        overlay = _reliable_overlay()
        overlay.network.rng = np.random.default_rng(0)
        prober = overlay.peers[0]
        indirect = _delta("reliability.indirect_probes")
        suspicions = _delta("reliability.suspicions")
        overlay.network.set_kind_drop_probability("ping", 0.999)
        prober.heartbeat_once()  # the direct ping is lost on send
        overlay.network.clear_kind_drop_probabilities()
        overlay.run()
        assert indirect() == 1  # the one other pool member
        assert suspicions() == 0
        assert not prober.detector.suspects
        assert not prober.detector._pending

    def test_silent_target_is_suspected_after_the_indirect_round(self):
        overlay = _reliable_overlay()
        prober = overlay.peers[0]
        overlay.network.crash(1)
        overlay.network.crash(2)
        prober.heartbeat_once()
        overlay.run()
        # One probe, no pong either way: suspected at once, no threshold.
        assert len(prober.detector.suspects) == 1
        assert not prober.detector._misses

    def test_helper_forwards_only_a_request_from_its_prober(self):
        overlay = MicroOverlay()
        helper = overlay.add_peer(0)
        seen = {node_id: [] for node_id in (5, 7, 9)}
        for node_id, inbox in seen.items():
            overlay.network.register(node_id, inbox.append)
        rejected = _delta("reliability.rejected_pings")
        request = m.Ping(probe_id=3, prober_id=5, target_id=7)

        def deliver(src, ping):
            helper.handle_message(
                Message(src=src, dst=0, kind="ping", payload=ping)
            )
            overlay.run()

        deliver(5, request)
        assert [msg.payload for msg in seen[7]] == [request]  # unchanged
        assert seen[5] == [] and rejected() == 0
        deliver(9, request)  # relayed by a third node: no chaining
        deliver(5, m.Ping(probe_id=3, prober_id=5, target_id=5))
        assert rejected() == 2
        assert len(seen[7]) == 1 and seen[5] == [] and seen[9] == []
        # The target of a forwarded ping pongs the prober directly.
        deliver(9, m.Ping(probe_id=4, prober_id=5, target_id=0))
        assert [msg.payload for msg in seen[5]] == [m.Pong(probe_id=4)]

    def test_pong_vouches_only_for_its_sender(self):
        overlay = _reliable_overlay()
        peer = overlay.peers[0]
        overlay.network.crash(1)
        peer.detector.note_missed(1)
        peer.detector.note_missed(1)
        peer.detector.probe(1)
        (key,) = peer.detector._pending
        forged = m.Pong(probe_id=key[1])
        peer.handle_message(Message(src=2, dst=0, kind="pong", payload=forged))
        assert 1 in peer.detector.suspects
        assert key in peer.detector._pending


def _detector_world(loss: float = 0.0):
    """A 100-peer reliable world, optionally with uniform message loss."""
    from repro.overlay.system import P2PSystemConfig

    _, system = build_live_system(
        scale=0.005,
        seed=7,
        config=P2PSystemConfig(reliability=ReliabilityConfig(enabled=True)),
    )
    if loss:
        system.network.rng = system.rngs.stream("loss.drop")
        system.network.set_drop_probability(loss)
    return system


def _rounds_until_suspected(system, victim: int, cap: int = 100) -> dict:
    """Crash ``victim``; ``watcher -> round it first suspected the victim``
    for every live peer whose pool holds it, once all of them do."""
    system.crash_node(victim)
    first: dict[int, int] = {}
    for round_no in range(1, cap + 1):
        system.run_failure_detector_rounds(1)
        watchers = [
            peer for peer in system.alive_peers() if victim in peer.detector._pool
        ]
        for peer in watchers:
            if victim in peer.detector.suspects:
                first.setdefault(peer.node_id, round_no)
        if all(peer.node_id in first for peer in watchers):
            return first
    raise AssertionError(f"node {victim} not suspected in {cap} rounds")


class TestDetectionBounds:
    def test_round_sends_at_most_one_direct_probe_per_peer(self):
        system = _detector_world()
        peers = system.alive_peers()
        for _ in range(3):
            before = {peer.node_id: peer.detector._next_probe_id for peer in peers}
            system.run_failure_detector_rounds(1)
            assert all(
                peer.detector._next_probe_id - before[peer.node_id] <= 1
                for peer in peers
            )

    def test_crash_suspected_within_one_pass_at_zero_loss(self):
        system = _detector_world()
        victim = system.all_node_ids()[3]
        first = _rounds_until_suspected(system, victim)
        assert first
        for node_id, round_no in first.items():
            pool = system.peer(node_id).detector._pool
            # A pool of one has no helpers: the miss threshold applies.
            threshold = system.peer(node_id).detector.config.suspicion_threshold
            bound = len(pool) if len(pool) > 1 else threshold
            assert round_no <= bound

    def test_detection_and_false_suspicions_at_two_percent_loss(self):
        # Seeded and exact: a change to the schedule, the helper draw or
        # the loss stream moves these pins.
        system = _detector_world(loss=0.02)
        suspicions = _delta("reliability.suspicions")
        system.run_failure_detector_rounds(150)
        assert suspicions() == 0  # no false suspicion in 150 rounds
        first = _rounds_until_suspected(system, system.all_node_ids()[3])
        assert len(first) == 5
        assert max(first.values()) == 6
