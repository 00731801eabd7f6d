"""Transport seam between protocol logic and the world.

The overlay protocols (:class:`repro.overlay.peer.Peer` and the layers
it owns — the reliable channel, the failure detector, the service
queue, the chunk fetcher) never touch :class:`repro.sim.network.Network`
or :class:`repro.sim.engine.Simulator` directly.  They speak to a
:class:`Transport`:

* :class:`SimTransport` — the simulated world: delegates to the
  discrete-event network and simulator with zero added frames on the
  message hot path, so golden runs stay byte-identical.
* :class:`repro.live.AsyncioTransport` — the real world: UDP datagrams
  over an asyncio event loop, framed by the versioned wire codec in
  :mod:`repro.transport.wire`.
* :class:`ReliableTransport` — a wrapper composing the ack/retry
  channel over any inner transport, so reliability is a transport
  property instead of an ``if`` inside every protocol send.

``as_transport`` coerces either a bare ``Network`` (legacy callers and
tests) or an existing ``Transport`` into a ``Transport``, caching one
``SimTransport`` per network so all peers of a simulation share it.

The wire-codec names (``WireFrame``, ``encode_frame``, ...) are
re-exported lazily: :mod:`repro.transport.wire` imports the overlay
message registry, and the overlay imports this package through the
reliability channel, so an eager import here would close that cycle.
"""

from repro.transport.base import Transport, as_transport
from repro.transport.reliable import RELIABLE_KINDS, ReliableTransport
from repro.transport.sim import SimTransport

__all__ = [
    "Transport",
    "as_transport",
    "SimTransport",
    "ReliableTransport",
    "RELIABLE_KINDS",
    "WIRE_SCHEMA",
    "WireError",
    "WireDecodeError",
    "WireFrame",
    "encode_frame",
    "decode_frame",
]

_WIRE_EXPORTS = frozenset(
    {
        "WIRE_SCHEMA",
        "WireError",
        "WireDecodeError",
        "WireFrame",
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
