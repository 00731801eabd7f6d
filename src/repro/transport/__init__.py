"""Transport seam between protocol logic and the world.

The overlay protocols (:class:`repro.overlay.peer.Peer` and the layers
it owns — the reliable channel, the failure detector, the service
queue, the chunk fetcher) speak to a :class:`Transport`, and every
handler receives the one envelope, :class:`Message`:

* :class:`repro.sim.network.Network` — the simulated world: the
  discrete-event network is itself a ``Transport``.
* :class:`repro.live.AsyncioTransport` — the real world: UDP datagrams
  over an asyncio event loop, framed by the versioned wire codec in
  :mod:`repro.transport.wire`.
* :class:`ReliableTransport` — a wrapper composing the ack/retry
  channel over either, so reliability is a transport property instead
  of an ``if`` inside every protocol send.

The wire-codec names (``encode_frame``, ``decode_frame``, ...) are
re-exported lazily: :mod:`repro.transport.wire` imports the overlay
message registry, and the overlay imports this package through the
reliability channel, so an eager import here would close that cycle.
"""

from repro.transport.base import Message, Transport
from repro.transport.reliable import RELIABLE_KINDS, ReliableTransport

__all__ = [
    "Message",
    "Transport",
    "ReliableTransport",
    "RELIABLE_KINDS",
    "WIRE_SCHEMA",
    "WireError",
    "WireDecodeError",
    "encode_frame",
    "decode_frame",
]

_WIRE_EXPORTS = frozenset(
    {
        "WIRE_SCHEMA",
        "WireError",
        "WireDecodeError",
        "encode_envelope",
        "decode_envelope",
        "encode_frame",
        "decode_frame",
    }
)


def __getattr__(name: str):
    if name in _WIRE_EXPORTS:
        from repro.transport import wire

        return getattr(wire, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
