"""Reliability as a transport property, not a protocol ``if``.

Historically every peer send branched::

    if reliability.enabled and kind in RELIABLE_KINDS:
        self.channel.send(...)
    else:
        self.network.send(...)

:class:`ReliableTransport` folds that branch into the transport stack:
it wraps any inner transport and routes the kinds that want ack/retry
semantics through the peer's :class:`repro.reliability.channel.ReliableChannel`,
passing everything else straight through.  The peer then has exactly
one send path — ``self.transport.send`` — in both the reliable and the
fire-and-forget configuration (the latter simply never wraps).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.transport.base import Transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.reliability.channel import ReliableChannel

__all__ = ["RELIABLE_KINDS", "ReliableTransport"]

#: Message kinds routed through the ack/retry channel when reliability
#: is enabled.  Queries and their answers are absent on purpose — the
#: requester's end-to-end deadline fails a query over to a *different*
#: cluster member as a new numbered attempt, which recovers a lost
#: query, a lost answer and a dead target alike; a per-hop ack on the
#: answer would recover the same loss twice.  Acks, pings, and gossip
#: are fire-and-forget by design (gossip is its own anti-entropy
#: repair).  Chunk traffic likewise relies on the fetcher's per-chunk
#: deadline failover rather than per-hop retries.
RELIABLE_KINDS = frozenset(
    {
        "publish_request",
        "publish_reply",
        "join_request",
        "join_reply",
        "reassign_notice",
        "transfer_request",
        "transfer_data",
    }
)


class ReliableTransport(Transport):
    """Wrap ``inner`` so :data:`RELIABLE_KINDS` get ack/retry delivery.

    Only :meth:`send` changes; membership, time, and scheduling all
    delegate to the inner transport (rebound as instance attributes, so
    the common operations cost one bound-method call).  The channel
    itself keeps talking to the *inner* transport — retransmissions
    must not re-enter this wrapper.
    """

    def __init__(self, inner: Transport, channel: "ReliableChannel") -> None:
        self.inner = inner
        self.channel = channel
        self._inner_send = inner.send
        self._channel_send = channel.send
        self.register = inner.register
        self.unregister = inner.unregister
        self.is_alive = inner.is_alive
        self.schedule = inner.schedule

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
        if kind in RELIABLE_KINDS:
            self._channel_send(dst, kind, payload, size_bytes=size_bytes)
            return None
        return self._inner_send(
            src,
            dst,
            kind,
            payload,
            size_bytes=size_bytes,
            delivery_id=delivery_id,
            attempt=attempt,
        )

    @property
    def now(self) -> float:
        return self.inner.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReliableTransport({self.inner!r})"
