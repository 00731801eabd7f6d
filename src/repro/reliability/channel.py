"""Ack/retry channel: at-least-once delivery, exactly-once effects.

One :class:`ReliableChannel` lives inside each peer and plays both
sides of the protocol:

* **sender** — :meth:`send` tags the message with a fresh, per-sender
  ``delivery_id`` and arms a per-attempt timeout; unacknowledged sends
  are retransmitted with capped exponential backoff (plus seeded jitter
  so synchronized retries do not stampede) up to ``max_attempts``.
* **receiver** — :meth:`observe` acks every reliable message (including
  duplicates, whose earlier ack may itself have been lost) and reports
  whether the message was already applied, keyed on ``(src,
  delivery_id)`` in a bounded LRU window, so retried publishes and
  transfers never double-count documents or bytes.

The jitter generator is only consulted when a retransmission actually
fires: a loss-free run draws nothing from it, which keeps zero-loss
experiment runs byte-identical whether or not the stream exists.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro import obs
from repro.sim.network import Message
# RELIABLE_KINDS moved to the transport layer (which kinds want acks is
# a wire property, not a channel implementation detail); re-exported
# here for the many existing importers.
from repro.transport import Transport
from repro.transport.reliable import RELIABLE_KINDS  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay import messages as m

__all__ = ["RELIABLE_KINDS", "ReliabilityConfig", "ReliableChannel"]

#: bytes charged for an ack (mirrors ``messages.CONTROL_SIZE``; the
#: overlay module is imported lazily to keep this package importable on
#: its own — overlay.peer imports us, so a top-level import would cycle).
_CONTROL_SIZE = 256

#: per-retry timeout multiplier (capped exponential backoff).
BACKOFF_FACTOR = 2.0
#: retry timeouts are stretched by up to this fraction, drawn from the
#: seeded jitter stream — only when a retry actually fires.
JITTER_FRACTION = 0.25
#: receiver-side duplicate-suppression window, per peer.
DEDUP_CAPACITY = 4096
#: retry token-bucket cap (and starting balance): the burst of retries a
#: quiet destination may absorb before ``retry_budget_ratio`` governs.
RETRY_BUDGET_CAP = 8.0
#: simulated seconds an open circuit waits before letting one half-open
#: trial delivery through; its fate closes or re-opens the circuit.
BREAKER_RESET_TIMEOUT = 10.0
#: lower clamp on the adaptive ack-timeout base.
MIN_ACK_TIMEOUT = 0.1
#: kinds the retry budget and the circuit breaker never refuse.  An
#: ownership notice is rare control traffic that adds no load worth
#: shedding, and one dead-lettered notice leaves its receiver routing
#: the category to a stale cluster.
UNMETERED_KINDS = frozenset({"reassign_notice"})

# Process-wide counters, cached at import time like the peer's.
_C_SENDS = obs.counter("reliability.sends")
_C_RETRIES = obs.counter("reliability.retries")
_C_ACKED = obs.counter("reliability.acked")
_C_GAVE_UP = obs.counter("reliability.gave_up")
_C_DUPLICATES = obs.counter("reliability.duplicates_suppressed")


@dataclass(frozen=True, slots=True)
class ReliabilityConfig:
    """Knobs for the channel, the query failover, and the detector."""

    #: master switch; off keeps every protocol exactly as fire-and-forget
    #: as before (no acks, no retries, no extra randomness).
    enabled: bool = False

    # --- ack/retry channel ---
    #: simulated seconds to wait for an ack before retransmitting.
    ack_timeout: float = 1.0
    #: upper bound on any single attempt's timeout.
    max_backoff: float = 8.0
    #: total transmission attempts (first send + retries) before giving up.
    max_attempts: int = 4

    # --- query failover ---
    #: end-to-end deadline armed by ``start_query``; on expiry the query
    #: is retried against a different NRT member of the target cluster.
    query_deadline: float = 3.0
    #: dispatch attempts per query before declaring failure.  A query
    #: answer is not acked, so an attempt must carry the query and the
    #: answer both: ~2.7 messages, which all survive 30 % loss 39 % of
    #: the time; eight attempts then succeed more than 98 % of the time.
    query_attempts: int = 8

    # --- failure detector ---
    #: simulated seconds to wait for a pong, once for the direct ping and
    #: once more for the indirect pings: a probe cycle can take two.
    probe_timeout: float = 1.0
    #: consecutive misses before a node becomes a suspect.  Misses come
    #: from channel give-ups, chunk timeouts and probes with no helpers;
    #: a probe whose indirect pings also time out suspects at once.
    suspicion_threshold: int = 2

    # --- client-side overload protection (all off by default) ---
    #: per-destination retry token bucket: every fresh send deposits this
    #: many tokens and every retransmission spends one, so sustained
    #: retries cannot exceed this fraction of fresh traffic.  A delivery
    #: denied a retry token is dead-lettered instead of retransmitted.
    #: 0 disables the budget.
    retry_budget_ratio: float = 0.0
    #: consecutive delivery give-ups to one destination before its
    #: circuit opens (new sends dead-lettered immediately, no network
    #: traffic).  0 disables the breaker.
    breaker_threshold: int = 0
    #: adapt the per-destination ack-timeout base from observed RTTs
    #: (Jacobson estimator, Karn-filtered samples) instead of the fixed
    #: ``ack_timeout`` — overloaded-but-alive peers answer slowly, and a
    #: fixed base misreads that as loss and retransmits into the queue.
    adaptive_timeout: bool = False

    @property
    def overload_protected(self) -> bool:
        """True when any client-side overload protection is configured."""
        return (
            self.retry_budget_ratio > 0.0
            or self.breaker_threshold > 0
            or self.adaptive_timeout
        )

    def __post_init__(self) -> None:
        if self.ack_timeout <= 0:
            raise ValueError(f"ack_timeout must be > 0, got {self.ack_timeout}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.query_attempts < 1:
            raise ValueError(
                f"query_attempts must be >= 1, got {self.query_attempts}"
            )
        if self.retry_budget_ratio < 0:
            raise ValueError(
                f"retry_budget_ratio must be >= 0, got {self.retry_budget_ratio}"
            )
        if self.breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be >= 0, got {self.breaker_threshold}"
            )


@dataclass(slots=True)
class _Outstanding:
    """One logical send awaiting its ack."""

    delivery_id: int
    dst: int
    kind: str
    payload: Any
    size_bytes: int
    attempt: int = 0
    #: simulated send time of the latest attempt (for RTT sampling).
    sent_at: float = 0.0


@dataclass(slots=True)
class _RetryBudget:
    """Per-destination token bucket limiting retransmissions."""

    tokens: float

    def deposit(self, ratio: float) -> None:
        self.tokens = min(self.tokens + ratio, RETRY_BUDGET_CAP)

    def take(self) -> bool:
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass(slots=True)
class _Breaker:
    """Per-destination circuit breaker keyed on delivery give-ups."""

    state: str = "closed"  # closed | open | half-open
    failures: int = 0
    opened_at: float = 0.0

    def allow(self, now: float) -> bool:
        if self.state == "closed":
            return True
        if self.state == "open" and now - self.opened_at >= BREAKER_RESET_TIMEOUT:
            self.state = "half-open"
            return True  # one trial delivery probes the destination
        return False

    def record_success(self) -> None:
        self.state = "closed"
        self.failures = 0

    def record_failure(self, threshold: int, now: float) -> None:
        self.failures += 1
        if self.state == "half-open" or self.failures >= threshold:
            self.state = "open"
            self.opened_at = now


@dataclass(slots=True)
class _RttEstimator:
    """Jacobson smoothed-RTT estimator (alpha=1/8, beta=1/4)."""

    srtt: float = -1.0
    rttvar: float = 0.0

    def observe(self, sample: float) -> None:
        if self.srtt < 0:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample

    def timeout(self) -> float:
        return self.srtt + 4.0 * self.rttvar


class ReliableChannel:
    """Both halves of the ack/retry protocol for one peer.

    ``on_give_up(dst, kind)`` is invoked when a delivery exhausts its
    attempts — the peer feeds this into its failure detector, turning
    persistent unresponsiveness into suspicion.
    """

    __slots__ = (
        "node_id", "transport", "config", "jitter_rng", "on_give_up",
        "_next_delivery_id", "_outstanding", "_seen", "dead_letters",
        "_budgets", "_breakers", "_rtt", "_c_dead_letters",
        "_c_budget_refused", "_c_breaker_refused", "_g_breakers_open",
    )

    def __init__(
        self,
        node_id: int,
        transport: Transport,
        config: ReliabilityConfig,
        jitter_rng=None,
        on_give_up: Callable[[int, str], None] | None = None,
    ) -> None:
        self.node_id = node_id
        self.transport = transport
        self.config = config
        self.jitter_rng = jitter_rng
        self.on_give_up = on_give_up
        self._next_delivery_id = 0
        self._outstanding: dict[int, _Outstanding] = {}
        #: (src, delivery_id) -> None; LRU window of applied deliveries.
        self._seen: OrderedDict[tuple[int, int], None] = OrderedDict()
        #: terminal local delivery failures (give-ups plus refused sends
        #: and retries), regardless of configuration.  Plain attribute so
        #: unprotected channels pay no metric registration.
        self.dead_letters = 0
        # Overload-protection state and metrics exist only when a knob is
        # on: default configs must register no new process-wide metrics
        # (deterministic snapshots list every registered metric).
        self._budgets: dict[int, _RetryBudget] | None = (
            {} if config.retry_budget_ratio > 0.0 else None
        )
        self._breakers: dict[int, _Breaker] | None = (
            {} if config.breaker_threshold > 0 else None
        )
        self._rtt: dict[int, _RttEstimator] | None = (
            {} if config.adaptive_timeout else None
        )
        if config.overload_protected:
            self._c_dead_letters = obs.counter("reliability.dead_letters")
            self._c_budget_refused = obs.counter(
                "reliability.retry_budget_refusals"
            )
            self._c_breaker_refused = obs.counter(
                "reliability.breaker_refusals"
            )
            self._g_breakers_open = obs.gauge("reliability.breakers_open")
        else:
            self._c_dead_letters = None
            self._c_budget_refused = None
            self._c_breaker_refused = None
            self._g_breakers_open = None

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def send(
        self, dst: int, kind: str, payload: Any, size_bytes: int = _CONTROL_SIZE
    ) -> int:
        """Reliably send; returns the delivery id (-1 when refused).

        With a circuit breaker configured, sends to a destination whose
        circuit is open are dead-lettered immediately — no delivery id is
        allocated and nothing touches the network.
        """
        if self._breakers is not None and kind not in UNMETERED_KINDS:
            breaker = self._breakers.get(dst)
            if breaker is not None and not breaker.allow(self.transport.now):
                self._c_breaker_refused.value += 1
                self._dead_letter(dst, kind)
                return -1
        if self._budgets is not None:
            self._budget(dst).deposit(self.config.retry_budget_ratio)
        self._next_delivery_id += 1
        out = _Outstanding(
            delivery_id=self._next_delivery_id,
            dst=dst,
            kind=kind,
            payload=payload,
            size_bytes=size_bytes,
        )
        self._outstanding[out.delivery_id] = out
        _C_SENDS.value += 1
        self._transmit(out)
        return out.delivery_id

    def _attempt_timeout(self, attempt: int, dst: int = -1) -> float:
        base = self.config.ack_timeout
        if self._rtt is not None:
            estimator = self._rtt.get(dst)
            if estimator is not None and estimator.srtt >= 0:
                base = min(
                    max(estimator.timeout(), MIN_ACK_TIMEOUT),
                    self.config.max_backoff,
                )
        timeout = min(
            base * BACKOFF_FACTOR**attempt,
            self.config.max_backoff,
        )
        if attempt > 0 and self.jitter_rng is not None:
            # Jitter applies to retries only, so the stream is untouched
            # on loss-free runs (byte-identical determinism).
            timeout *= 1.0 + JITTER_FRACTION * float(self.jitter_rng.random())
        return timeout

    def _transmit(self, out: _Outstanding) -> None:
        out.sent_at = self.transport.now
        self.transport.send(
            self.node_id,
            out.dst,
            out.kind,
            out.payload,
            size_bytes=out.size_bytes,
            delivery_id=out.delivery_id,
            attempt=out.attempt,
        )
        armed_attempt = out.attempt

        def on_timeout() -> None:
            current = self._outstanding.get(out.delivery_id)
            if current is None or current.attempt != armed_attempt:
                return  # acked, or a later attempt owns the timer
            if out.attempt + 1 >= self.config.max_attempts:
                self._outstanding.pop(out.delivery_id, None)
                _C_GAVE_UP.value += 1
                self._note_failure(out.dst)
                self._dead_letter(out.dst, out.kind)
                return
            if (
                self._budgets is not None
                and out.kind not in UNMETERED_KINDS
                and not self._budget(out.dst).take()
            ):
                # Out of retry tokens for this destination: retransmitting
                # would amplify whatever is already wrong there.
                self._outstanding.pop(out.delivery_id, None)
                self._c_budget_refused.value += 1
                self._note_failure(out.dst)
                self._dead_letter(out.dst, out.kind)
                return
            out.attempt += 1
            _C_RETRIES.value += 1
            self._transmit(out)

        self.transport.schedule(
            self._attempt_timeout(armed_attempt, out.dst), on_timeout
        )

    @classmethod
    def registrations(cls) -> dict:
        """The kinds this class owns: ``kind -> (payload class, handler)``."""
        from repro.overlay.messages import Ack

        return {"ack": (Ack, cls.handle_ack)}

    def handle_ack(self, ack: "m.Ack", src: int) -> None:
        """Settle the acked delivery (idempotent: late acks are no-ops)."""
        out = self._outstanding.pop(ack.delivery_id, None)
        if out is None:
            return
        _C_ACKED.value += 1
        self._note_success(out.dst)
        if self._rtt is not None and out.attempt == 0:
            # Karn's rule: only unretransmitted deliveries yield samples
            # (a retried delivery's ack is ambiguous about which attempt
            # it answers).
            estimator = self._rtt.get(out.dst)
            if estimator is None:
                estimator = _RttEstimator()
                self._rtt[out.dst] = estimator
            estimator.observe(self.transport.now - out.sent_at)

    def clear_failure_state(self) -> None:
        """Drop every in-flight delivery (armed timers become no-ops).

        Used when the owning peer heals after a crash: deliveries armed
        before the outage are stale evidence, not work worth finishing.
        """
        self._outstanding.clear()

    def lose_power(self) -> None:
        """Power loss: volatile channel state is gone, sender and receiver.

        Unlike :meth:`clear_failure_state` (crash with memory intact) this also
        forgets the receiver dedup window — an amnesiac node genuinely
        cannot tell a retransmission from a first delivery, so the
        deployment's exactly-once accounting restarts alongside it.
        """
        self._outstanding.clear()
        self._seen.clear()

    # ------------------------------------------------------------------
    # overload protection internals
    # ------------------------------------------------------------------
    def _budget(self, dst: int) -> _RetryBudget:
        budget = self._budgets.get(dst)
        if budget is None:
            budget = _RetryBudget(tokens=RETRY_BUDGET_CAP)
            self._budgets[dst] = budget
        return budget

    def _dead_letter(self, dst: int, kind: str) -> None:
        """Account one terminal local delivery failure and tell the peer."""
        self.dead_letters += 1
        if self._c_dead_letters is not None:
            self._c_dead_letters.value += 1
        if self.on_give_up is not None:
            self.on_give_up(dst, kind)

    def _note_failure(self, dst: int) -> None:
        if self._breakers is None:
            return
        breaker = self._breakers.get(dst)
        if breaker is None:
            breaker = _Breaker()
            self._breakers[dst] = breaker
        was_closed = breaker.state == "closed"
        breaker.record_failure(
            self.config.breaker_threshold, self.transport.now
        )
        if was_closed and breaker.state == "open":
            self._g_breakers_open.value += 1

    def _note_success(self, dst: int) -> None:
        if self._breakers is None:
            return
        breaker = self._breakers.get(dst)
        if breaker is None:
            return
        if breaker.state != "closed":
            self._g_breakers_open.value -= 1
        breaker.record_success()

    def min_budget_tokens(self) -> float | None:
        """Lowest retry-budget balance across destinations, or None.

        The chaos no-overdraft invariant asserts this never goes
        negative: a token bucket that lends tokens is not a budget.
        """
        if not self._budgets:
            return None
        return min(budget.tokens for budget in self._budgets.values())

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def observe(self, message: Message) -> bool:
        """Ack a reliable message; True when it is a suppressed duplicate.

        Duplicates are re-acked (the original ack may have been the lost
        message) but must not reach the protocol handler again.
        """
        if message.delivery_id < 0:
            return False
        from repro.overlay.messages import Ack

        self.transport.send(
            self.node_id,
            message.src,
            "ack",
            Ack(delivery_id=message.delivery_id, receiver_id=self.node_id),
            size_bytes=_CONTROL_SIZE,
        )
        key = (message.src, message.delivery_id)
        if key in self._seen:
            self._seen.move_to_end(key)
            _C_DUPLICATES.value += 1
            return True
        self._seen[key] = None
        while len(self._seen) > DEDUP_CAPACITY:
            self._seen.popitem(last=False)
        return False
