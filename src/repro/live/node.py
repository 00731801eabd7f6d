"""One overlay node as a live OS process, plus the soak client peer.

The live deployment convention is deliberately small — the point of
:mod:`repro.live` is to prove the *protocol code* runs unchanged over
real sockets, not to reinvent deployment tooling:

* node ids below :data:`CLIENT_ID_BASE` are **servers**: cluster-0
  members that store every document of the world and answer queries
  and chunk requests.  Node 0 doubles as the **seed** every client
  bootstraps from (``start_join``).
* ids at or above :data:`CLIENT_ID_BASE` are **clients**: they join
  nothing and publish nothing — :class:`LiveClientPeer` merges the
  seed's DCRT/NRT snapshots and stops, so clients never appear in any
  server's NRT and never get routed queries.

The world itself (documents, categories, sizes) is derived from three
integers shared by every process via CLI flags, so no process ships
state to another out of band: document ``d`` belongs to category
``d % n_categories`` and its manifest is :func:`~repro.content.
manifest.build_manifest` of its id and size.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import signal
from dataclasses import dataclass

import numpy as np

from repro.content.chunks import ContentConfig
from repro.content.manifest import Manifest, build_manifest
from repro.durability import DurabilityConfig, FileStore, PeerJournal
from repro.live.transport import AsyncioTransport
from repro.overlay.messages import DocInfo, JoinReply
from repro.overlay.peer import Peer, PeerConfig
from repro.reliability.channel import ReliabilityConfig

__all__ = [
    "CLIENT_ID_BASE",
    "LiveClientPeer",
    "LiveWorld",
    "format_routes",
    "live_peer_config",
    "open_journal",
    "parse_routes",
    "run_node",
]

log = logging.getLogger("repro.live")

#: node ids at or above this are clients (bootstrap-only, never served).
CLIENT_ID_BASE = 1000


@dataclass(frozen=True, slots=True)
class LiveWorld:
    """The shared corpus every live process derives locally from flags."""

    n_docs: int = 24
    n_categories: int = 8
    doc_size_bytes: int = 16_384
    chunk_size: int = 4_096

    def category_of(self, doc_id: int) -> int:
        return doc_id % self.n_categories

    def doc_info(self, doc_id: int) -> DocInfo:
        return DocInfo(
            doc_id=doc_id,
            categories=(self.category_of(doc_id),),
            size_bytes=self.doc_size_bytes,
        )

    def manifest(self, doc_id: int) -> Manifest:
        return build_manifest(doc_id, self.doc_size_bytes, self.chunk_size)


def live_peer_config(world: LiveWorld) -> PeerConfig:
    """Peer tunables for wall-clock loopback time.

    The simulator's defaults assume abstract time units; over loopback
    UDP a round trip is sub-millisecond, so deadlines shrink to keep
    failover (the soak kills a peer mid-run) inside human patience:
    a query exhausts its six 0.4 s attempts in ~2.4 s worst case.
    """
    return PeerConfig(
        reliability=ReliabilityConfig(
            enabled=True,
            ack_timeout=0.25,
            max_backoff=1.0,
            max_attempts=4,
            query_deadline=0.4,
            query_attempts=6,
            probe_timeout=0.3,
            suspicion_threshold=2,
        ),
        content=ContentConfig(
            enabled=True,
            chunk_size=world.chunk_size,
            chunk_timeout=0.4,
            max_chunk_attempts=5,
        ),
    )


class LiveClientPeer(Peer):
    """A bootstrap-only peer: consumes metadata, contributes nothing.

    Replaces the ``join_reply`` registration to *stop after merging* the
    seed's DCRT/NRT snapshots — the membership protocol would go on to
    announce contributions or dummy-publish, which would insert the
    client into server NRTs and make it a routing target.
    ``on_bootstrap`` fires once the merge lands, so a supervisor can
    await readiness.
    """

    def __init__(self, *args, on_bootstrap=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._on_bootstrap = on_bootstrap
        self.bootstrapped = False
        self.register("join_reply", JoinReply, self._bootstrap_from, replace=True)

    def _bootstrap_from(self, reply: JoinReply, src: int) -> None:
        self.membership.merge_join_reply(reply)
        first = not self.bootstrapped
        self.bootstrapped = True
        if first and self._on_bootstrap is not None:
            self._on_bootstrap()


def parse_routes(spec: str) -> dict[int, tuple[str, int]]:
    """Parse ``"0:7000,1:7001"`` (or ``"0:host:7000"``) into a route map.

    A supervisor typo must not bind the wrong port or shadow a node, so a
    repeated or negative node id, a port outside 0-65535 and a non-integer
    field all raise ``ValueError`` naming the offending part.
    """
    routes: dict[int, tuple[str, int]] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) == 2:
            node_id, host, port = pieces[0], "127.0.0.1", pieces[1]
        elif len(pieces) == 3:
            node_id, host, port = pieces
        else:
            raise ValueError(f"bad route {part!r} (want id:port or id:host:port)")
        try:
            node_id, port = int(node_id), int(port)
        except ValueError:
            raise ValueError(
                f"bad route {part!r} (id and port must be integers)"
            ) from None
        if node_id < 0:
            raise ValueError(f"bad route {part!r} (negative node id)")
        if not 0 <= port <= 65535:
            raise ValueError(f"bad route {part!r} (port outside 0-65535)")
        if node_id in routes:
            raise ValueError(f"bad route {part!r} (node {node_id} routed twice)")
        routes[node_id] = (host, port)
    return routes


def format_routes(routes: dict[int, tuple[str, int]]) -> str:
    return ",".join(
        f"{node_id}:{host}:{port}"
        for node_id, (host, port) in sorted(routes.items())
    )


def open_journal(state_dir: str) -> PeerJournal:
    """A file-backed durability journal rooted at ``state_dir``."""
    return PeerJournal(FileStore(state_dir), DurabilityConfig(enabled=True))


def build_server_peer(
    node_id: int,
    transport: AsyncioTransport,
    world: LiveWorld,
    server_ids: list[int],
    *,
    seed: int = 0,
    journal: PeerJournal | None = None,
) -> Peer:
    """Construct one fully-stocked cluster-0 server over ``transport``.

    Exposed separately from :func:`run_node` so in-process tests can
    stand up a server without subprocess machinery.

    With a ``journal`` whose store already acknowledges documents, the
    peer *recovers* instead of re-stocking: snapshot + WAL replay
    restores its holdings, DCRT, and memberships, and only the live
    topology (NRT fellows, gossip neighbors) is re-pinned from flags.
    A fresh journal is attached first, so the initial stocking itself
    is the first thing it acknowledges.
    """
    peer = Peer(
        node_id,
        capacity_units=1.0,
        rng=np.random.default_rng(seed * 7919 + node_id),
        config=live_peer_config(world),
        jitter_rng=np.random.default_rng(seed * 104_729 + node_id),
        transport=transport,
    )
    state = journal.load() if journal is not None else None
    if state is not None and state["docs"]:
        peer.restore_durable_state(state)
        peer.attach_journal(journal)
    else:
        if journal is not None:
            peer.attach_journal(journal)
        for doc_id in range(world.n_docs):
            peer.store_document(world.doc_info(doc_id))
        for category_id in range(world.n_categories):
            peer.dcrt.set(category_id, 0)
    peer.join_cluster(0, known_members=server_ids)
    peer.set_cluster_neighbors(0, server_ids)
    return peer


async def run_node(
    node_id: int,
    routes: dict[int, tuple[str, int]],
    world: LiveWorld,
    *,
    loss: float = 0.0,
    heartbeat_interval: float = 0.5,
    seed: int = 0,
    state_dir: str | None = None,
) -> None:
    """Run one server node until SIGTERM/SIGINT.

    Prints ``READY <node_id> <port> recovered=<n>`` once the socket is
    bound and the peer is serving — the soak supervisor synchronizes on
    that line.  ``recovered`` counts the documents replayed from the
    ``state_dir`` journal (0 on a fresh start or without persistence);
    a restart that reuses a killed node's state dir recovers its
    acknowledged holdings instead of rejoining empty.
    """
    if node_id not in routes:
        raise ValueError(f"node {node_id} missing from its own route map")
    if node_id >= CLIENT_ID_BASE:
        raise ValueError(
            f"node {node_id} is in the client id range; run a client "
            "in-process via LiveClientPeer instead"
        )
    host, port = routes[node_id]
    transport = AsyncioTransport(
        loss_probability=loss, loss_seed=seed * 31 + node_id
    )
    await transport.start(host, port)
    transport.set_routes(routes)
    server_ids = sorted(i for i in routes if i < CLIENT_ID_BASE)
    journal = open_journal(state_dir) if state_dir is not None else None
    recovered = len(journal.durable_doc_ids()) if journal is not None else 0
    peer = build_server_peer(
        node_id, transport, world, server_ids, seed=seed, journal=journal
    )

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, stop.set)

    print(
        f"READY {node_id} {transport.local_address[1]} recovered={recovered}",
        flush=True,
    )

    async def heartbeats() -> None:
        while not stop.is_set():
            peer.heartbeat_once()
            await asyncio.sleep(heartbeat_interval)

    beat = asyncio.create_task(heartbeats())
    try:
        await stop.wait()
    finally:
        beat.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await beat
        await transport.stop()
        if journal is not None:
            journal.store.close()
