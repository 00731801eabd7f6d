"""Live runtime: the overlay over real sockets.

The protocol code in :mod:`repro.overlay` talks to the world only
through :class:`repro.transport.Transport`; this package provides the
socket-backed implementation (:class:`AsyncioTransport`, UDP datagrams
carrying the versioned binary ``repro.wire/v2`` codec) plus the process
harness around it: per-node entrypoints, a bootstrap-only client peer,
and the kill/restart soak supervisor behind ``python -m repro.live``.
"""

from repro.live.node import (
    CLIENT_ID_BASE,
    LiveClientPeer,
    LiveWorld,
    build_server_peer,
    format_routes,
    live_peer_config,
    open_journal,
    parse_routes,
    run_node,
)
from repro.live.soak import SoakConfig, run_soak, run_soak_sync
from repro.live.transport import AsyncioTransport

__all__ = [
    "AsyncioTransport",
    "CLIENT_ID_BASE",
    "LiveClientPeer",
    "LiveWorld",
    "SoakConfig",
    "build_server_peer",
    "format_routes",
    "live_peer_config",
    "open_journal",
    "parse_routes",
    "run_node",
    "run_soak",
    "run_soak_sync",
]
