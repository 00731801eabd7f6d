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
#: is enabled: the kinds whose protocol has no deadline of its own yet.
#: Every other kind has exactly one recoverer above the channel: the
#: requester's query deadline (queries and answers), the fetcher's
#: per-chunk deadline (chunks), the next replica round (replica pulls),
#: the destination's group deadline (category moves), anti-entropy
#: (gossip); acks and pings are fire-and-forget by design.
RELIABLE_KINDS = frozenset(
    {
        # No recoverer: nothing re-publishes a lost publish.
        "publish_request",
        "publish_reply",
        # No recoverer until the joiner keeps its own deadline (ROADMAP 16(a)).
        "join_request",
        "join_reply",
        # Gossip repairs the DCRT half; nothing re-sends the transfer roles.
        "reassign_notice",
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

    __slots__ = (
        "inner", "channel", "_inner_send", "_channel_send", "register",
        "unregister", "is_alive", "schedule",
    )

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
