"""Message-passing network on top of the discrete-event engine.

Models what the paper's protocols need from the internet substrate:

* **Delivery with latency** — a fixed per-hop base latency plus a
  size-proportional transfer time (``size_bytes / bandwidth``), so small
  control messages are cheap and document transfers take realistic time.
* **Traffic accounting** — per-node and global counters of messages and
  bytes sent, used by the rebalancing-cost experiment (T3) to verify the
  paper's "large transfer broken into many small pair transfers" claim.
* **Fault injection** — message drop probability, crashed nodes, and
  network partitions (Section 6.1's discussion of sub-cluster trees under
  partitionings).

Handlers are registered per node id; a delivered message invokes
``handler(message)`` at the destination.  Sending to a crashed node or
across a partition silently drops the message — exactly the failure model
the paper's protocols must tolerate.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import obs
from repro.sim.engine import Simulator
from repro.transport.base import Message, Transport

__all__ = ["Message", "Network", "NetworkStats"]


@dataclass(slots=True)
class NetworkStats:
    """Cumulative traffic counters.

    ``drops_by_reason`` breaks ``messages_dropped`` down by *why* the
    message was lost:

    * ``dst-dead`` — destination unregistered or crashed at send time;
    * ``src-crashed`` — the sender itself is crashed;
    * ``partitioned`` — sender and destination are in different partitions;
    * ``random-loss`` — lost to the configured drop probability;
    * ``dst-dead-at-delivery`` — the destination crashed or left while the
      message was in flight.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    drops_by_reason: dict[str, int] = field(default_factory=dict)

    def record_sent(self, message: Message) -> None:
        self.messages_sent += 1
        self.bytes_sent += message.size_bytes
        self.by_kind[message.kind] = self.by_kind.get(message.kind, 0) + 1
        self.bytes_by_kind[message.kind] = (
            self.bytes_by_kind.get(message.kind, 0) + message.size_bytes
        )

    def record_dropped(self, reason: str) -> None:
        self.messages_dropped += 1
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1


class Network(Transport):
    """A simulated network connecting protocol handlers: the
    :class:`~repro.transport.Transport` of the simulated world.

    Parameters
    ----------
    sim:
        The discrete-event simulator driving delivery.
    base_latency:
        One-way delivery latency for a zero-size message (time units).
    bandwidth:
        Bytes per time unit; transfer time is ``size / bandwidth`` on top
        of the base latency.  ``None`` means size does not affect latency.
    drop_probability:
        Probability an arbitrary message is lost in transit.
    rng:
        Random generator for drop decisions (only consulted when
        ``drop_probability > 0``, keeping fault-free runs deterministic).
    """

    def __init__(
        self,
        sim: Simulator,
        base_latency: float = 0.05,
        bandwidth: float | None = 1_000_000.0,
        drop_probability: float = 0.0,
        rng=None,
    ) -> None:
        if base_latency < 0:
            raise ValueError(f"base_latency must be >= 0, got {base_latency}")
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1), got {drop_probability}"
            )
        if drop_probability > 0.0 and rng is None:
            raise ValueError("drop_probability > 0 requires an rng")
        self.sim = sim
        # Hot-path rebinds: instance attributes shadow the Transport
        # methods, so ``transport.send(...)`` is one bound-method call.
        self.send = self.transmit
        self.schedule = sim.schedule
        self.base_latency = base_latency
        self.bandwidth = bandwidth
        self.drop_probability = drop_probability
        self.rng = rng
        self.stats = NetworkStats()
        self._c_sent = obs.counter("net.messages_sent")
        self._c_delivered = obs.counter("net.messages_delivered")
        self._c_dropped = obs.counter("net.messages_dropped")
        self._c_bytes = obs.counter("net.bytes_sent")
        self._trace = obs.TRACE
        self._handlers: dict[int, Callable[[Message], None]] = {}
        self._crashed: set[int] = set()
        #: message kind -> drop-probability override (chaos `ack-loss`
        #: style targeted faults).  Absent kinds use ``drop_probability``.
        self._kind_drop: dict[str, float] = {}
        #: node id -> partition label; nodes in different partitions cannot
        #: communicate.  Unlabelled nodes share the default partition.
        self._partition: dict[int, int] = {}
        #: True while no fault of any sort is armed; lets :meth:`send` skip
        #: the whole crash/partition/loss check chain on the hot path.
        self._fault_free = True
        self._refresh_fault_state()

    @property
    def now(self) -> float:
        return self.sim.now

    def _refresh_fault_state(self) -> None:
        """Recompute the zero-fault flag after any fault-control change."""
        self._fault_free = (
            not self._crashed
            and not self._partition
            and self.drop_probability == 0.0
            and not self._kind_drop
        )

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, node_id: int, handler: Callable[[Message], None]) -> None:
        """Attach a node's message handler (joins the network)."""
        self._handlers[node_id] = handler
        if self._crashed:
            self._crashed.discard(node_id)
            self._refresh_fault_state()

    def unregister(self, node_id: int) -> None:
        """Detach a node (graceful leave)."""
        self._handlers.pop(node_id, None)

    def crash(self, node_id: int) -> None:
        """Mark a node crashed: it silently loses all traffic."""
        self._crashed.add(node_id)
        self._fault_free = False

    def recover(self, node_id: int) -> None:
        """Clear a node's crashed flag."""
        self._crashed.discard(node_id)
        self._refresh_fault_state()

    def is_alive(self, node_id: int) -> bool:
        return node_id in self._handlers and node_id not in self._crashed

    def alive_among(self, node_ids: Set[int]) -> Set[int]:
        """The members of ``node_ids`` that :meth:`is_alive`.

        Two set operations whatever the size of ``node_ids``, and when
        all of them are alive the answer is ``node_ids`` itself, not a
        copy: read-only for the caller.
        """
        handlers = self._handlers.keys()
        crashed = self._crashed
        if crashed.isdisjoint(node_ids) and handlers >= node_ids:
            return node_ids
        return (handlers & node_ids) - crashed

    def crashed_nodes(self) -> list[int]:
        """Sorted ids of nodes currently marked crashed."""
        return sorted(self._crashed)

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------
    def set_partition(self, node_ids, label: int) -> None:
        """Place ``node_ids`` into partition ``label``."""
        for node_id in node_ids:
            self._partition[node_id] = label
        self._refresh_fault_state()

    def heal_partitions(self) -> None:
        """Merge all partitions back into one network."""
        self._partition.clear()
        self._refresh_fault_state()

    def _same_partition(self, a: int, b: int) -> bool:
        return self._partition.get(a, 0) == self._partition.get(b, 0)

    # ------------------------------------------------------------------
    # scheduled fault controls (chaos harness)
    # ------------------------------------------------------------------
    def set_drop_probability(self, probability: float) -> None:
        """Change the random-loss probability mid-run.

        Raising it above zero requires the network to have been built with
        an ``rng`` (drop decisions must come from a named stream so the
        run stays reproducible).
        """
        if not 0.0 <= probability < 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1), got {probability}"
            )
        if probability > 0.0 and self.rng is None:
            raise ValueError("drop_probability > 0 requires an rng")
        self.drop_probability = probability
        self._refresh_fault_state()

    def set_kind_drop_probability(self, kind: str, probability: float) -> None:
        """Override the drop probability for one message ``kind``.

        Used by the chaos harness to target protocol paths — e.g. dropping
        only ``ack`` messages forces retransmission storms without touching
        the rest of the traffic.  The override fully replaces the global
        probability for that kind (0.0 pins a kind lossless).
        """
        if not 0.0 <= probability < 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1), got {probability}"
            )
        if probability > 0.0 and self.rng is None:
            raise ValueError("drop_probability > 0 requires an rng")
        self._kind_drop[kind] = probability
        self._fault_free = False

    def clear_kind_drop_probabilities(self) -> None:
        """Remove all per-kind overrides (part of a chaos ``heal``)."""
        self._kind_drop.clear()
        self._refresh_fault_state()

    def schedule_partition(self, delay: float, groups) -> None:
        """Schedule a partitioning: each group of node ids gets its own label.

        ``groups`` is an iterable of node-id iterables; the first group gets
        label 1, the second label 2, and so on.  Nodes in no group keep the
        default label 0 (and so can still talk to each other).
        """
        groups = [list(group) for group in groups]

        def apply() -> None:
            for label, group in enumerate(groups, start=1):
                self.set_partition(group, label)

        self.sim.schedule(delay, apply)

    def schedule_heal(self, delay: float) -> None:
        """Schedule a full partition heal."""
        self.sim.schedule(delay, self.heal_partitions)

    def schedule_loss_ramp(
        self, target: float, duration: float, steps: int = 4
    ) -> None:
        """Ramp the drop probability to ``target`` over ``duration``.

        The probability moves in ``steps`` equal increments from its value
        at ramp start, the last step landing exactly on ``target`` — the
        gradually-degrading-link regime rather than a cliff.
        """
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        start = self.drop_probability

        def make_step(index: int):
            fraction = index / steps
            return lambda: self.set_drop_probability(
                start + (target - start) * fraction
            )

        for index in range(1, steps + 1):
            self.sim.schedule(duration * index / steps, make_step(index))

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def latency_for(self, size_bytes: int) -> float:
        """Delivery latency of a message of ``size_bytes``."""
        transfer = 0.0 if self.bandwidth is None else size_bytes / self.bandwidth
        return self.base_latency + transfer

    def transmit(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: Any,
        size_bytes: int = 256,
        delivery_id: int = -1,
        attempt: int = 0,
    ) -> Message:
        """Send a message; delivery is scheduled on the simulator.

        Messages to dead/partitioned destinations, or unlucky under the
        drop probability, are counted as dropped and never delivered — the
        sender gets no error (UDP-like semantics; senders needing
        reliability layer an ack/retry channel on top, tagging retries
        with a stable ``delivery_id`` — see :mod:`repro.reliability`).

        Protocol code calls this as ``transport.send`` (bound in
        ``__init__``), keeping the protocols world-agnostic.
        """
        message = Message(src, dst, kind, payload, size_bytes, delivery_id, attempt)
        self.stats.record_sent(message)
        self._c_sent.value += 1
        self._c_bytes.value += size_bytes
        if self._trace.enabled:
            self._trace.emit(
                "msg_send",
                t=self.sim.now,
                src=src,
                dst=dst,
                msg=kind,
                size=size_bytes,
            )

        # Checked in a fixed order so the rng is consulted only for
        # messages that would otherwise go through (deterministic
        # fault-free runs) and each drop has exactly one reason.  With no
        # fault armed the chain collapses to a handler-presence check
        # (``is_alive`` with an empty crash set); the rng is untouched on
        # both paths, so fault-free runs stay deterministic either way.
        reason = None
        if self._fault_free:
            if dst not in self._handlers:
                reason = "dst-dead"
        elif not self.is_alive(dst):
            reason = "dst-dead"
        elif src in self._crashed:
            reason = "src-crashed"
        elif not self._same_partition(src, dst):
            reason = "partitioned"
        else:
            loss = self._kind_drop.get(kind, self.drop_probability)
            if loss > 0.0 and self.rng.random() < loss:
                reason = "random-loss"
        if reason is not None:
            self._drop(message, reason)
            return message

        def deliver() -> None:
            # Re-check liveness at delivery time: the destination may have
            # crashed or left while the message was in flight.
            handler = self._handlers.get(dst)
            if handler is None or dst in self._crashed:
                self._drop(message, "dst-dead-at-delivery")
                return
            self.stats.messages_delivered += 1
            self._c_delivered.value += 1
            if self._trace.enabled:
                self._trace.emit(
                    "msg_deliver", t=self.sim.now, src=src, dst=dst, msg=kind
                )
            handler(message)

        self.sim.schedule(self.latency_for(size_bytes), deliver)
        return message

    def _drop(self, message: Message, reason: str) -> None:
        self.stats.record_dropped(reason)
        self._c_dropped.value += 1
        if self._trace.enabled:
            self._trace.emit(
                "msg_drop",
                t=self.sim.now,
                src=message.src,
                dst=message.dst,
                msg=message.kind,
                reason=reason,
            )
