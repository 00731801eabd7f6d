"""Transport conformance: one contract suite, every backend.

Protocol code sees the world only through :class:`repro.transport.
Transport`, so the behavioural contract the simulator honours must hold
over real sockets too.  Each contract here is written once against the
interface and runs parametrized over:

* ``sim`` — the discrete-event :class:`Network` itself, no adapter;
* ``live`` — two :class:`AsyncioTransport` endpoints exchanging UDP
  datagrams over loopback (the socket path);
* ``live-local`` — one :class:`AsyncioTransport` hosting both nodes
  (the in-process fast path, which still pays the codec round trip).

Contracts: payload fidelity, per-pair ordering, no transport-level
deduplication (dedup is the peer's job), silent counted drops for
unknown or unregistered destinations, declared-size accounting, timer
scheduling and cancellation, and a monotonic clock.
"""

import asyncio

import pytest

from repro.live.transport import AsyncioTransport
from repro.overlay import messages as m
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.transport import Message, Transport

BACKENDS = ("sim", "live", "live-local")

#: a registered wire type, so live backends can encode it.
PAYLOAD = m.QueryMessage(query_id=1, requester_id=1, category_id=0, remaining=1)


class SimWorld:
    """Both endpoints share the one simulated network."""

    def __init__(self):
        self.sim = Simulator()
        self.network = Network(self.sim, base_latency=0.01, bandwidth=None)
        self.transports = {1: self.network, 2: self.network}

    async def start(self):
        pass

    async def stop(self):
        pass

    def stats_for(self, node_id):
        return self.network.stats

    async def settle(self):
        self.sim.run()


class LiveWorld:
    """One AsyncioTransport per node, datagrams over loopback."""

    def __init__(self):
        self.transports = {1: AsyncioTransport(), 2: AsyncioTransport()}

    async def start(self):
        addrs = {}
        for node_id, transport in self.transports.items():
            addrs[node_id] = await transport.start()
        for transport in self.transports.values():
            for node_id, (host, port) in addrs.items():
                transport.add_route(node_id, host, port)

    async def stop(self):
        for transport in self.transports.values():
            await transport.stop()

    def stats_for(self, node_id):
        return self.transports[node_id].stats

    async def settle(self):
        # Loopback UDP lands within a few loop iterations; a couple of
        # short sleeps lets the receiving endpoint drain.
        for _ in range(20):
            await asyncio.sleep(0.005)


class LiveLocalWorld(LiveWorld):
    """Both nodes on one AsyncioTransport (the local fast path)."""

    def __init__(self):
        transport = AsyncioTransport()
        self.transports = {1: transport, 2: transport}

    async def start(self):
        await self.transports[1].start()


def make_world(backend):
    return {
        "sim": SimWorld,
        "live": LiveWorld,
        "live-local": LiveLocalWorld,
    }[backend]()


def run(backend, contract):
    async def runner():
        world = make_world(backend)
        await world.start()
        try:
            await contract(world)
        finally:
            await world.stop()

    asyncio.run(runner())


@pytest.mark.parametrize("backend", BACKENDS)
def test_delivery_and_payload_fidelity(backend):
    async def contract(world):
        received = []
        world.transports[2].register(2, received.append)
        assert isinstance(world.transports[1], Transport)
        world.transports[1].send(
            1, 2, "query", PAYLOAD, size_bytes=512, delivery_id=7, attempt=2
        )
        await world.settle()
        # One envelope: every backend hands the handler the same value.
        assert received == [Message(1, 2, "query", PAYLOAD, 512, 7, 2)]

    run(backend, contract)


@pytest.mark.parametrize("backend", BACKENDS)
def test_none_payload(backend):
    async def contract(world):
        received = []
        world.transports[2].register(2, received.append)
        world.transports[1].send(1, 2, "tick", None)
        await world.settle()
        assert len(received) == 1
        assert received[0].payload is None

    run(backend, contract)


@pytest.mark.parametrize("backend", BACKENDS)
def test_per_pair_ordering(backend):
    async def contract(world):
        received = []
        world.transports[2].register(2, received.append)
        for i in range(20):
            world.transports[1].send(
                1,
                2,
                "query",
                m.QueryMessage(
                    query_id=i, requester_id=1, category_id=0, remaining=1
                ),
            )
        await world.settle()
        assert [msg.payload.query_id for msg in received] == list(range(20))

    run(backend, contract)


@pytest.mark.parametrize("backend", BACKENDS)
def test_no_transport_level_dedup(backend):
    # At-least-once reliability retransmits with the same delivery_id;
    # suppression is the receiving *peer's* job (its dedup window), so
    # the transport must deliver every copy it carries.
    async def contract(world):
        received = []
        world.transports[2].register(2, received.append)
        for attempt in range(2):
            world.transports[1].send(
                1, 2, "query", PAYLOAD, delivery_id=7, attempt=attempt
            )
        await world.settle()
        assert len(received) == 2
        assert [msg.delivery_id for msg in received] == [7, 7]
        assert [msg.attempt for msg in received] == [0, 1]

    run(backend, contract)


@pytest.mark.parametrize("backend", BACKENDS)
def test_unknown_destination_drops_silently(backend):
    async def contract(world):
        stats = world.stats_for(1)
        before = stats.messages_dropped
        world.transports[1].send(1, 99, "query", PAYLOAD)  # must not raise
        await world.settle()
        # The sim counts the drop at send time ("dst-dead"); a live
        # sender without a route counts "no-route".  Either way the
        # message is gone and accounted on the sending side.
        assert stats.messages_dropped == before + 1

    run(backend, contract)


@pytest.mark.parametrize("backend", BACKENDS)
def test_unregister_stops_delivery(backend):
    async def contract(world):
        received = []
        world.transports[2].register(2, received.append)
        world.transports[1].send(1, 2, "query", PAYLOAD)
        await world.settle()
        world.transports[2].unregister(2)
        world.transports[1].send(1, 2, "query", PAYLOAD)
        await world.settle()
        assert len(received) == 1

    run(backend, contract)


@pytest.mark.parametrize("backend", BACKENDS)
def test_declared_size_accounting(backend):
    async def contract(world):
        world.transports[2].register(2, lambda msg: None)
        stats = world.stats_for(1)
        bytes_before = stats.bytes_sent
        sent_before = stats.messages_sent
        for size in (100, 300, 256):
            world.transports[1].send(1, 2, "query", PAYLOAD, size_bytes=size)
        await world.settle()
        # Accounting uses the *declared* protocol size (the simulated
        # cost model), not the codec's frame length — both worlds must
        # report identical traffic volumes for identical workloads.
        assert stats.bytes_sent - bytes_before == 100 + 300 + 256
        assert stats.messages_sent - sent_before == 3
        assert stats.by_kind.get("query", 0) >= 3

    run(backend, contract)


@pytest.mark.parametrize("backend", BACKENDS)
def test_schedule_fires_and_cancels(backend):
    async def contract(world):
        transport = world.transports[1]
        fired = []
        transport.schedule(0.01, lambda: fired.append("kept"))
        cancelled = transport.schedule(0.01, lambda: fired.append("cancelled"))
        cancelled.cancel()
        await world.settle()
        if isinstance(world, SimWorld):
            world.sim.run()
        else:
            await asyncio.sleep(0.05)
        assert fired == ["kept"]

    run(backend, contract)


@pytest.mark.parametrize("backend", BACKENDS)
def test_clock_is_monotonic(backend):
    async def contract(world):
        transport = world.transports[1]
        first = transport.now
        world.transports[2].register(2, lambda msg: None)
        transport.send(1, 2, "tick", None)
        await world.settle()
        assert transport.now >= first

    run(backend, contract)


@pytest.mark.parametrize("backend", BACKENDS)
def test_is_alive_tracks_registration(backend):
    async def contract(world):
        world.transports[2].register(2, lambda msg: None)
        assert world.transports[2].is_alive(2)
        world.transports[2].unregister(2)
        assert not world.transports[2].is_alive(2) or 2 in getattr(
            world.transports[2], "routes", {}
        )

    run(backend, contract)


def test_asyncio_transport_requires_start():
    transport = AsyncioTransport()
    with pytest.raises(RuntimeError, match="before start"):
        transport.send(1, 2, "tick", None)
    with pytest.raises(RuntimeError, match="before start"):
        transport.now
    with pytest.raises(RuntimeError, match="before start"):
        transport.schedule(0.1, lambda: None)


def test_asyncio_transport_rejects_bad_loss():
    with pytest.raises(ValueError, match="loss_probability"):
        AsyncioTransport(loss_probability=1.5)


def test_injected_loss_is_counted():
    async def scenario():
        transport = AsyncioTransport(loss_probability=0.999999, loss_seed=1)
        await transport.start()
        received = []
        transport.register(2, received.append)
        for _ in range(20):
            transport.send(1, 2, "tick", None)
        await asyncio.sleep(0.05)
        dropped = transport.stats.drops_by_reason.get("injected-loss", 0)
        await transport.stop()
        assert dropped == 20
        assert received == []

    asyncio.run(scenario())


def test_decode_errors_counted_not_fatal():
    async def scenario():
        transport = AsyncioTransport()
        host, port = await transport.start()
        received = []
        transport.register(2, received.append)
        import socket as socketlib

        with socketlib.socket(
            socketlib.AF_INET, socketlib.SOCK_DGRAM
        ) as raw:
            raw.sendto(b"garbage that is not a frame", (host, port))
        # A valid frame after the garbage must still get through.
        transport.send(1, 2, "tick", None)
        for _ in range(40):
            if received and transport.decode_errors:
                break
            await asyncio.sleep(0.01)
        await transport.stop()
        assert transport.decode_errors == 1
        assert len(received) == 1

    asyncio.run(scenario())


def test_handler_exception_does_not_kill_delivery():
    async def scenario():
        transport = AsyncioTransport()
        await transport.start()
        received = []

        def bad_handler(message):
            received.append(message)
            raise RuntimeError("boom")

        transport.register(2, bad_handler)
        transport.send(1, 2, "tick", None)
        transport.send(1, 2, "tick", None)
        await asyncio.sleep(0.05)
        await transport.stop()
        assert len(received) == 2
        assert transport.handler_errors == 2

    asyncio.run(scenario())
