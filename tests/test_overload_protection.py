"""Client-side overload protection: retry budgets, breakers, RTT adaptation.

Exercises :class:`repro.reliability.channel.ReliableChannel` standalone
(two hand-wired channels on a raw network) plus the end-to-end
BUSY-failover path through real peers.
"""

import pytest

from repro import obs
from repro.overlay.peer import PeerConfig
from repro.overlay.service import ServiceConfig
from repro.reliability.channel import (
    BREAKER_RESET_TIMEOUT,
    MIN_ACK_TIMEOUT,
    RETRY_BUDGET_CAP,
    ReliabilityConfig,
    ReliableChannel,
)
from repro.sim.engine import Simulator
from repro.sim.network import Network
from tests.helpers import MicroOverlay

SENDER, RECEIVER = 0, 99


def _channel_pair(config: ReliabilityConfig, base_latency: float = 0.05):
    """Two wired channels: SENDER's acks and RECEIVER's observes flow.

    The sender has no jitter stream, so retry timeouts are exact.
    """
    sim = Simulator()
    network = Network(sim, base_latency=base_latency, bandwidth=None)
    give_ups: list[tuple[int, str]] = []
    sender = ReliableChannel(
        SENDER,
        network,
        config,
        jitter_rng=None,
        on_give_up=lambda dst, kind: give_ups.append((dst, kind)),
    )
    receiver = ReliableChannel(RECEIVER, network, config)
    network.register(
        SENDER,
        lambda message: (
            sender.handle_ack(message.payload, message.src) if message.kind == "ack" else None
        ),
    )
    network.register(RECEIVER, receiver.observe)
    return sim, network, sender, give_ups


def _delta(name: str):
    counter = obs.counter(name)
    start = counter.value
    return lambda: counter.value - start


def _advance(sim: Simulator, delay: float) -> None:
    sim.schedule(delay, lambda: None)
    sim.run()


def budget_tokens(channel: ReliableChannel) -> float | None:
    """The receiver's retry tokens (None when budgets are off)."""
    if channel._budgets is None:
        return None
    budget = channel._budgets.get(RECEIVER)
    return RETRY_BUDGET_CAP if budget is None else budget.tokens


def breaker_state(channel: ReliableChannel) -> str:
    """The receiver's circuit state ('closed' when it has no breaker)."""
    breaker = (channel._breakers or {}).get(RECEIVER)
    return "closed" if breaker is None else breaker.state


class TestRetryBudget:
    def test_budget_exhaustion_dead_letters_instead_of_retrying(self):
        c_refused = obs.counter("reliability.retry_budget_refusals")
        c_retries = obs.counter("reliability.retries")
        c_gave_up = obs.counter("reliability.gave_up")
        refused0, retries0, gave_up0 = (
            c_refused.value, c_retries.value, c_gave_up.value,
        )
        config = ReliabilityConfig(
            enabled=True,
            ack_timeout=0.2,
            max_attempts=16,
            retry_budget_ratio=0.5,
        )
        sim, network, sender, give_ups = _channel_pair(config)
        network.crash(RECEIVER)

        sender.send(RECEIVER, "publish_request", None)
        sim.run()

        # A full bucket of retry tokens bought as many retransmissions;
        # the next was refused and the delivery dead-lettered well short
        # of max_attempts.
        assert c_retries.value - retries0 == RETRY_BUDGET_CAP
        assert c_refused.value - refused0 == 1
        assert c_gave_up.value - gave_up0 == 0  # refusal is not a give-up
        assert sender.dead_letters == 1
        assert not sender._outstanding
        assert give_ups == [(RECEIVER, "publish_request")]
        # The bucket never overdrafts.
        assert budget_tokens(sender) == pytest.approx(0.0)
        assert sender.min_budget_tokens() >= 0.0

    def test_reassign_notice_retries_without_tokens(self):
        # An ownership notice is never dead-lettered by the budget: it is
        # retried to max_attempts on an empty bucket and then gives up.
        config = ReliabilityConfig(
            enabled=True, ack_timeout=0.2, max_attempts=16, retry_budget_ratio=0.5
        )
        sim, network, sender, give_ups = _channel_pair(config)
        network.crash(RECEIVER)
        sender.send(RECEIVER, "publish_request", None)
        sim.run()
        assert budget_tokens(sender) == pytest.approx(0.0)
        retries = _delta("reliability.retries")
        sender.send(RECEIVER, "reassign_notice", None)
        sim.run()
        assert retries() == config.max_attempts - 1
        assert give_ups[-1] == (RECEIVER, "reassign_notice")
        assert budget_tokens(sender) == pytest.approx(0.5)

    def test_fresh_sends_replenish_the_bucket(self):
        config = ReliabilityConfig(enabled=True, retry_budget_ratio=0.5)
        sim, network, sender, _ = _channel_pair(config)
        for _ in range(3):
            sender.send(RECEIVER, "publish_request", None)
        sim.run()
        # Acked cleanly: deposits happened, nothing was spent or capped out.
        assert budget_tokens(sender) == pytest.approx(RETRY_BUDGET_CAP)
        assert sender.dead_letters == 0

    def test_budgets_off_by_default(self):
        config = ReliabilityConfig(enabled=True)
        _, _, sender, _ = _channel_pair(config)
        assert budget_tokens(sender) is None
        assert sender.min_budget_tokens() is None


class TestCircuitBreaker:
    CONFIG = ReliabilityConfig(
        enabled=True,
        ack_timeout=0.1,
        max_attempts=2,
        breaker_threshold=2,
    )

    def test_open_half_open_close_cycle(self):
        c_refused = obs.counter("reliability.breaker_refusals")
        g_open = obs.gauge("reliability.breakers_open")
        refused0, open0 = c_refused.value, g_open.value
        sim, network, sender, _ = _channel_pair(self.CONFIG)
        network.crash(RECEIVER)

        # Two give-ups trip the breaker.
        for _ in range(2):
            sender.send(RECEIVER, "publish_request", None)
            sim.run()
        assert breaker_state(sender) == "open"
        assert g_open.value - open0 == 1

        # While open, sends are refused locally: no id, no network traffic.
        sent_before = network.stats.messages_sent
        assert sender.send(RECEIVER, "publish_request", None) == -1
        assert network.stats.messages_sent == sent_before
        assert c_refused.value - refused0 == 1
        assert sender.dead_letters == 3  # 2 give-ups + 1 refusal

        # After the reset timeout one half-open trial probes the (now
        # recovered) destination; its ack closes the circuit.
        network.recover(RECEIVER)
        _advance(sim, BREAKER_RESET_TIMEOUT + 0.1)
        delivery_id = sender.send(RECEIVER, "publish_request", None)
        assert delivery_id > 0
        sim.run()
        assert breaker_state(sender) == "closed"
        assert g_open.value - open0 == 0  # gauge restored on close

    def test_failed_half_open_trial_reopens(self):
        g_open = obs.gauge("reliability.breakers_open")
        open0 = g_open.value
        sim, network, sender, _ = _channel_pair(self.CONFIG)
        network.crash(RECEIVER)
        for _ in range(2):
            sender.send(RECEIVER, "publish_request", None)
            sim.run()
        assert breaker_state(sender) == "open"

        # Still crashed: the half-open trial gives up and re-opens.
        _advance(sim, BREAKER_RESET_TIMEOUT + 0.1)
        assert sender.send(RECEIVER, "publish_request", None) > 0
        sim.run()
        assert breaker_state(sender) == "open"
        assert g_open.value - open0 == 1  # still exactly one open circuit

    def test_open_circuit_still_carries_a_reassign_notice(self):
        sim, network, sender, _ = _channel_pair(self.CONFIG)
        network.crash(RECEIVER)
        for _ in range(2):
            sender.send(RECEIVER, "publish_request", None)
            sim.run()
        assert breaker_state(sender) == "open"
        network.recover(RECEIVER)
        assert sender.send(RECEIVER, "publish_request", None) == -1
        assert sender.send(RECEIVER, "reassign_notice", None) > 0
        sim.run()
        # Its ack is a success like any other: the circuit closes.
        assert breaker_state(sender) == "closed"

    def test_breaker_off_by_default(self):
        config = ReliabilityConfig(enabled=True, ack_timeout=0.1, max_attempts=1)
        sim, network, sender, _ = _channel_pair(config)
        network.crash(RECEIVER)
        for _ in range(5):
            sender.send(RECEIVER, "publish_request", None)
        sim.run()
        # Plenty of give-ups, but no breaker configured: never refused.
        assert breaker_state(sender) == "closed"
        assert all(
            sender.send(RECEIVER, "publish_request", None) > 0
            for _ in range(2)
        )
        sim.run()


class TestAdaptiveTimeout:
    CONFIG = ReliabilityConfig(
        enabled=True,
        ack_timeout=2.0,
        adaptive_timeout=True,
    )

    def test_timeout_tracks_observed_rtt(self):
        sim, network, sender, _ = _channel_pair(self.CONFIG, base_latency=0.05)
        for _ in range(5):
            sender.send(RECEIVER, "publish_request", None)
            sim.run()
        # RTT is 2 x base_latency = 0.1s; srtt + 4*rttvar lands far below
        # the 2s configured base but above the lower clamp.
        adapted = sender._attempt_timeout(0, RECEIVER)
        assert MIN_ACK_TIMEOUT <= adapted < 0.5
        # Destinations without samples keep the configured base.
        assert sender._attempt_timeout(0, dst=42) == pytest.approx(2.0)

    def test_karn_rule_ignores_retransmitted_acks(self):
        config = ReliabilityConfig(
            enabled=True,
            ack_timeout=0.2,
            adaptive_timeout=True,
        )
        sim, network, sender, _ = _channel_pair(config)
        # First attempt is lost; the destination heals before the retry,
        # so the ack answers attempt 1 — ambiguous, and never sampled.
        network.crash(RECEIVER)
        sim.schedule(0.15, lambda: network.recover(RECEIVER))
        sender.send(RECEIVER, "publish_request", None)
        sim.run()
        assert not sender._outstanding  # the retry was acked
        assert sender._rtt == {}  # but produced no RTT sample
        assert sender._attempt_timeout(0, RECEIVER) == pytest.approx(0.2)


class TestDeadLetters:
    def test_exhausted_attempts_dead_letter_with_counters(self):
        c_dead = obs.counter("reliability.dead_letters")
        c_gave_up = obs.counter("reliability.gave_up")
        dead0, gave_up0 = c_dead.value, c_gave_up.value
        config = ReliabilityConfig(
            enabled=True,
            ack_timeout=0.1,
            max_attempts=2,
            adaptive_timeout=True,  # any protection knob registers metrics
        )
        sim, network, sender, give_ups = _channel_pair(config)
        network.crash(RECEIVER)
        sender.send(RECEIVER, "transfer_request", None)
        sim.run()
        assert c_gave_up.value - gave_up0 == 1
        assert c_dead.value - dead0 == 1
        assert sender.dead_letters == 1
        assert give_ups == [(RECEIVER, "transfer_request")]

    def test_unprotected_channel_counts_locally_only(self):
        c_dead = obs.counter("reliability.dead_letters")
        dead0 = c_dead.value
        config = ReliabilityConfig(enabled=True, ack_timeout=0.1, max_attempts=1)
        assert not config.overload_protected
        sim, network, sender, _ = _channel_pair(config)
        network.crash(RECEIVER)
        sender.send(RECEIVER, "publish_request", None)
        sim.run()
        # The plain attribute always counts; the process-wide counter is
        # only wired up when a protection knob is on.
        assert sender.dead_letters == 1
        assert c_dead.value == dead0


class TestBusyFailover:
    def test_shed_queries_fail_over_to_another_member(self):
        c_failover = obs.counter("reliability.query_failovers")
        failover0 = c_failover.value

        overlay = MicroOverlay(seed=3)
        reliability = ReliabilityConfig(
            enabled=True, query_deadline=5.0, query_attempts=6
        )
        slow = overlay.add_peer(
            1,
            config=PeerConfig(
                reliability=reliability,
                service=ServiceConfig(
                    enabled=True,
                    base_service_time=0.4,
                    queue_capacity=1,
                    policy="drop-tail",
                ),
            ),
        )
        overlay.add_peer(
            2,
            config=PeerConfig(
                reliability=reliability,
                service=ServiceConfig(
                    enabled=True, base_service_time=0.01, queue_capacity=0
                ),
            ),
        )
        client = overlay.add_peer(0, config=PeerConfig(reliability=reliability))
        overlay.wire_cluster(0, [1, 2], edges=[(1, 2)], category_map={0: 0})
        overlay.give_document(1, 7, [0])
        overlay.give_document(2, 7, [0])
        client.dcrt.set(0, 0)
        client.nrt.add(0, 1)
        client.nrt.add(0, 2)

        n_queries = 10
        for index in range(n_queries):
            overlay.sim.schedule_at(
                index * 1e-3,
                lambda q=index: client.start_query(q, 0, 1, target_doc_id=7),
            )
        overlay.run()

        # The slow member shed part of the burst; every shed query backed
        # off and was re-dispatched to the healthy member — none failed.
        assert overlay.network.stats.by_kind.get("busy", 0) > 0
        assert c_failover.value - failover0 > 0
        assert not overlay.hooks.failures
        answered = {e[1].query_id for e in overlay.hooks.responses}
        assert answered == set(range(n_queries))
        assert slow.service_snapshot()["shed"] > 0
