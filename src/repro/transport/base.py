"""The :class:`Transport` interface and the :class:`Message` envelope.

A transport owns everything a protocol endpoint needs from the outside
world: datagram-style sends, delivery-callback registration, a time
source, one-shot timer scheduling, and a liveness oracle.  Protocol
code holding a ``Transport`` runs unchanged over the discrete-event
simulator (:class:`repro.sim.network.Network`) and over real sockets
(:class:`repro.live.AsyncioTransport`); both hand handlers the same
:class:`Message`.

Design constraints:

* **No ABCMeta.**  Transports rebind hot methods as instance attributes
  (``self.send = self.transmit``) so the simulated hot path pays no
  extra frames; abstract-method machinery would fight that.
* **``schedule`` returns a cancellable.**  Anything with a ``cancel()``
  method — the simulator's ``Event`` or asyncio's ``TimerHandle``.
* **``now`` is a property**, matching ``Simulator.now`` so protocol
  timestamps read the same in both worlds (sim time units vs. loop
  seconds).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.frozen import frozen_dataclass

__all__ = ["Message", "Transport"]


@frozen_dataclass
class Message:
    """The one envelope: what a transport carries and a handler receives.

    ``payload`` is an arbitrary protocol object (the overlay uses the
    dataclasses in :mod:`repro.overlay.messages`); ``kind`` is a short
    string used for dispatch and traffic breakdowns.

    ``delivery_id`` / ``attempt`` carry reliable-delivery metadata for
    senders using an ack/retry channel: ``delivery_id`` is stable across
    retransmissions of the same logical send (so receivers can suppress
    duplicates) while ``attempt`` counts retransmissions.
    Fire-and-forget sends leave ``delivery_id`` at -1; a sender expects an
    acknowledgement exactly when ``delivery_id >= 0``.
    """

    src: int
    dst: int
    kind: str
    payload: Any = None
    size_bytes: int = 256
    delivery_id: int = -1
    attempt: int = 0


class Transport:
    """Interface between protocol endpoints and the world.

    Semantics are UDP-like: :meth:`send` never raises for dead or
    unknown destinations — the message is silently dropped and counted;
    senders needing delivery guarantees compose an ack/retry layer on
    top (:class:`repro.transport.reliable.ReliableTransport`).
    """

    __slots__ = ()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, node_id: int, handler: Callable[[Message], None]) -> None:
        """Attach a node's delivery handler; inbound messages for
        ``node_id`` invoke ``handler(message)``."""
        raise NotImplementedError

    def unregister(self, node_id: int) -> None:
        """Detach a node's handler (graceful leave)."""
        raise NotImplementedError

    def is_alive(self, node_id: int) -> bool:
        """Best local knowledge of whether ``node_id`` can receive."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: Any,
        size_bytes: int = 256,
        delivery_id: int = -1,
        attempt: int = 0,
    ):
        """Fire-and-forget datagram send; returns the in-flight message
        (or None for transports that do not materialize one)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current transport time (simulated units or loop seconds)."""
        raise NotImplementedError

    def schedule(self, delay: float, callback: Callable[[], None]):
        """Run ``callback`` after ``delay``; returns an object with a
        ``cancel()`` method."""
        raise NotImplementedError
