"""The :class:`Transport` over real UDP sockets (asyncio).

One :class:`AsyncioTransport` is one process's endpoint: it binds a UDP
socket, carries every outbound message through the versioned wire codec
(:mod:`repro.transport.wire`), and dispatches inbound datagrams to the
handlers registered locally.  The same :class:`repro.overlay.peer.Peer`
that runs over the simulated :class:`repro.sim.network.Network` runs over
this class unchanged — ``now`` is the event loop's clock, ``schedule`` is
``loop.call_later``, and sends are fire-and-forget datagrams.

Fault injection lives at the codec layer on purpose: a "lost" message
is dropped *after* encoding, so injected loss exercises exactly the
bytes a congested network would drop, and local fast-path deliveries
still pay the full encode/decode round trip (what arrives is what a
remote peer would have received).

Semantics match the simulated network's UDP-like contract: sends to
unknown or dead destinations are silently dropped and counted, never
raised; reliability composes on top (``ReliableTransport``).
"""

from __future__ import annotations

import asyncio
import logging
import random
from typing import Any, Callable

from repro.sim.network import NetworkStats
from repro.transport import Message, Transport
from repro.transport.wire import WireDecodeError, decode_frame, encode_frame

__all__ = ["AsyncioTransport"]

log = logging.getLogger("repro.live")


class _DatagramProtocol(asyncio.DatagramProtocol):
    """Thin asyncio protocol delegating everything to the transport."""

    def __init__(self, owner: "AsyncioTransport") -> None:
        self.owner = owner

    def datagram_received(self, data: bytes, addr) -> None:
        self.owner._on_datagram(data, addr)

    def error_received(self, exc: Exception) -> None:
        self.owner.socket_errors += 1
        log.warning("socket error: %s", exc)


class AsyncioTransport(Transport):
    """A UDP datagram transport speaking ``repro.wire/v2``.

    Parameters
    ----------
    loss_probability:
        Probability an *encoded* outbound frame is dropped before it
        reaches the socket (or the local fast path) — deterministic
        chaos injection for soak tests.
    loss_seed:
        Seed of the private loss RNG, so a soak's drop schedule is
        reproducible.
    """

    def __init__(
        self,
        *,
        loss_probability: float = 0.0,
        loss_seed: int = 0,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1), got {loss_probability}"
            )
        self.loss_probability = loss_probability
        self._loss_rng = random.Random(loss_seed)
        #: node id -> (host, port) of every known remote endpoint.
        self.routes: dict[int, tuple[str, int]] = {}
        self._handlers: dict[int, Callable[[Message], None]] = {}
        self.stats = NetworkStats()
        #: inbound datagrams rejected by the wire codec (fast-fail).
        self.decode_errors = 0
        #: exceptions escaping a delivery handler (logged, not fatal).
        self.handler_errors = 0
        self.socket_errors = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._endpoint: asyncio.DatagramTransport | None = None
        #: (host, port) actually bound, available after :meth:`start`.
        self.local_address: tuple[str, int] | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind the UDP socket; returns the bound ``(host, port)``."""
        if self._endpoint is not None:
            raise RuntimeError("transport already started")
        loop = asyncio.get_running_loop()
        endpoint, _ = await loop.create_datagram_endpoint(
            lambda: _DatagramProtocol(self), local_addr=(host, port)
        )
        self._loop = loop
        self._endpoint = endpoint
        sockname = endpoint.get_extra_info("sockname")
        self.local_address = (sockname[0], sockname[1])
        return self.local_address

    async def stop(self) -> None:
        """Close the socket; registered handlers stay (for restarts)."""
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None
            # Yield once so the close completes before the loop ends.
            await asyncio.sleep(0)

    def _require_started(self) -> asyncio.AbstractEventLoop:
        if self._loop is None or self._endpoint is None:
            raise RuntimeError("AsyncioTransport used before start()")
        return self._loop

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def add_route(self, node_id: int, host: str, port: int) -> None:
        """Teach the transport where ``node_id`` receives datagrams."""
        self.routes[node_id] = (host, port)

    def set_routes(self, routes: dict[int, tuple[str, int]]) -> None:
        self.routes.update(routes)

    # ------------------------------------------------------------------
    # Transport interface
    # ------------------------------------------------------------------
    def register(self, node_id: int, handler: Callable[[Message], None]) -> None:
        self._handlers[node_id] = handler

    def unregister(self, node_id: int) -> None:
        self._handlers.pop(node_id, None)

    def is_alive(self, node_id: int) -> bool:
        """Local nodes are alive while registered; remotes are presumed
        alive while routed — actual liveness is the failure detector's
        job, exactly as on a real network."""
        return node_id in self._handlers or node_id in self.routes

    def send(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: Any,
        size_bytes: int = 256,
        delivery_id: int = -1,
        attempt: int = 0,
    ) -> Message | None:
        loop = self._require_started()
        message = Message(src, dst, kind, payload, size_bytes, delivery_id, attempt)
        self.stats.record_sent(message)
        data = encode_frame(message)
        if (
            self.loss_probability > 0.0
            and self._loss_rng.random() < self.loss_probability
        ):
            self.stats.record_dropped("injected-loss")
            return None
        if dst in self._handlers:
            # Local fast path: same process, but the frame still pays
            # the full codec round trip so delivery is byte-equivalent
            # to the socket path.
            try:
                received = decode_frame(data)
            except WireDecodeError as exc:  # pragma: no cover - encode bug
                self.decode_errors += 1
                self.stats.record_dropped("decode-error")
                log.error("local frame failed to decode: %s", exc)
                return None
            loop.call_soon(self._deliver, received)
            return message
        addr = self.routes.get(dst)
        if addr is None:
            self.stats.record_dropped("no-route")
            return None
        self._endpoint.sendto(data, addr)
        return message

    @property
    def now(self) -> float:
        return self._require_started().time()

    def schedule(self, delay: float, callback: Callable[[], None]):
        return self._require_started().call_later(delay, callback)

    # ------------------------------------------------------------------
    # inbound
    # ------------------------------------------------------------------
    def _on_datagram(self, data: bytes, addr) -> None:
        try:
            message = decode_frame(data)
        except WireDecodeError as exc:
            self.decode_errors += 1
            self.stats.record_dropped("decode-error")
            log.warning("dropping datagram from %s: %s", addr, exc)
            return
        if message.dst not in self._handlers:
            self.stats.record_dropped("dst-dead")
            return
        self._deliver(message)

    def _deliver(self, message: Message) -> None:
        handler = self._handlers.get(message.dst)
        if handler is None:
            self.stats.record_dropped("dst-dead")
            return
        self.stats.messages_delivered += 1
        try:
            handler(message)
        except Exception:
            # One malformed-but-decodable message must not kill the
            # process's serving loop; log it and keep going.
            self.handler_errors += 1
            log.exception(
                "handler for node %d raised on %r from %d",
                message.dst,
                message.kind,
                message.src,
            )
