"""Live soak: a seed plus N server processes, driven by a client peer.

The supervisor (this module) spawns every server as a real OS process
running ``python -m repro.live node``, waits for each to print its
``READY`` line, then runs an in-process :class:`~repro.live.node.
LiveClientPeer` that bootstraps off the seed and drives a paced
query-and-fetch workload over loopback UDP.

Chaos is part of the acceptance bar, not an option: with
``kill_restart`` on (the default), one non-seed server is SIGKILLed a
third of the way through and restarted at two thirds — queries riding
the reliability layer's failover deadlines and fetches riding chunk
failover must keep the overall success rate at or above
``min_success``.

Every query, fetch, kill, and restart is appended to a JSONL metrics
file (when ``metrics_path`` is set), with a final ``summary`` line —
the artifact the CI ``live-smoke`` job uploads on failure.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import socket
import sys
from dataclasses import dataclass, field

import numpy as np

from repro.live.node import (
    CLIENT_ID_BASE,
    LiveClientPeer,
    LiveWorld,
    format_routes,
    live_peer_config,
)
from repro.live.transport import AsyncioTransport
from repro.overlay.peer import PeerHooks

__all__ = ["SoakConfig", "run_soak", "run_soak_sync"]

#: fetch ids issued by the soak client (disjoint from query ids).
_FETCH_ID_BASE = 1_000_000
#: wall-clock seconds the supervisor waits for one query, one fetch, and
#: a server's READY line.
_QUERY_TIMEOUT = 6.0
_FETCH_TIMEOUT = 12.0
_READY_TIMEOUT = 20.0


@dataclass(slots=True)
class SoakConfig:
    """One soak run's shape.  Defaults match the CI ``live-smoke`` job."""

    n_peers: int = 4
    duration: float = 30.0
    n_queries: int = 500
    n_fetches: int = 20
    loss: float = 0.0
    kill_restart: bool = True
    min_success: float = 0.99
    metrics_path: str | None = None
    #: root directory for per-node durability state; when set, each
    #: server runs with ``--state-dir <root>/node-<id>`` and the
    #: mid-run restart reuses the killed node's directory, so the
    #: replacement recovers its acknowledged holdings instead of
    #: rejoining empty — and the soak gates on that recovery.
    state_dir: str | None = None
    seed: int = 1
    world: LiveWorld = field(default_factory=LiveWorld)
    heartbeat_interval: float = 0.5

    def __post_init__(self) -> None:
        if self.n_peers < 1:
            raise ValueError(f"n_peers must be >= 1, got {self.n_peers}")
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if self.kill_restart and self.n_peers < 2:
            raise ValueError("kill_restart needs at least 2 peers (seed survives)")


def _free_udp_port(host: str = "127.0.0.1") -> int:
    """Grab an ephemeral UDP port number (freed before use; loopback
    collisions in the tiny reuse window are vanishingly rare)."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


class _ClientHooks(PeerHooks):
    """Routes query outcomes into per-query futures."""

    def __init__(self) -> None:
        self.futures: dict[int, asyncio.Future] = {}

    def on_query_response(self, peer, response) -> None:
        future = self.futures.pop(response.query_id, None)
        if future is not None and not future.done():
            future.set_result((bool(response.doc_ids), "ok"))

    def on_query_failed(self, peer, query_id: int, reason: str) -> None:
        future = self.futures.pop(query_id, None)
        if future is not None and not future.done():
            future.set_result((False, reason))


class _Metrics:
    """Append-only JSONL event sink (file optional, memory always)."""

    def __init__(self, path: str | None) -> None:
        self.events: list[dict] = []
        self._file = open(path, "w", encoding="utf-8") if path else None

    def emit(self, event: dict) -> None:
        self.events.append(event)
        if self._file is not None:
            self._file.write(json.dumps(event, sort_keys=True) + "\n")
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class _ServerProc:
    """One spawned server process plus its stdout drain."""

    def __init__(self, node_id: int, cmd: list[str], env: dict) -> None:
        self.node_id = node_id
        self.cmd = cmd
        self.env = env
        self.proc: asyncio.subprocess.Process | None = None
        self._drain: asyncio.Task | None = None
        #: documents the node replayed from its state dir (READY line).
        self.recovered = 0

    async def start(self) -> None:
        self.proc = await asyncio.create_subprocess_exec(
            *self.cmd,
            stdout=asyncio.subprocess.PIPE,
            stderr=None,  # inherit: child tracebacks land in our stderr
            env=self.env,
        )
        await asyncio.wait_for(self._await_ready(), _READY_TIMEOUT)
        # Keep the pipe drained so the child can never block on stdout.
        self._drain = asyncio.create_task(self._drain_stdout())

    async def _await_ready(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        while True:
            line = await self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server {self.node_id} exited before READY "
                    f"(rc={self.proc.returncode})"
                )
            text = line.decode(errors="replace")
            if text.startswith("READY "):
                for token in text.split():
                    if token.startswith("recovered="):
                        self.recovered = int(token.partition("=")[2])
                return

    async def _drain_stdout(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        while await self.proc.stdout.readline():
            pass

    def kill(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()

    async def stop(self, grace: float = 5.0) -> None:
        if self._drain is not None:
            self._drain.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._drain
            self._drain = None
        if self.proc is None or self.proc.returncode is not None:
            return
        with contextlib.suppress(ProcessLookupError):
            self.proc.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(self.proc.wait(), grace)
        except asyncio.TimeoutError:
            self.kill()
            await self.proc.wait()


def _node_cmd(
    node_id: int, routes_spec: str, config: SoakConfig
) -> list[str]:
    world = config.world
    return [
        sys.executable,
        "-m",
        "repro.live",
        "node",
        "--node-id", str(node_id),
        "--routes", routes_spec,
        "--n-docs", str(world.n_docs),
        "--n-categories", str(world.n_categories),
        "--doc-bytes", str(world.doc_size_bytes),
        "--chunk-bytes", str(world.chunk_size),
        "--loss", str(config.loss),
        "--seed", str(config.seed),
        "--heartbeat", str(config.heartbeat_interval),
    ] + (
        # Per-node state dirs: a restart that rebuilds the same command
        # reuses the killed node's directory, which is the whole point.
        ["--state-dir", os.path.join(config.state_dir, f"node-{node_id}")]
        if config.state_dir is not None
        else []
    )


def _child_env() -> dict:
    """Child interpreter env with the repro package importable."""
    import repro

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = os.environ.copy()
    existing = env.get("PYTHONPATH", "")
    if pkg_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            pkg_root + (os.pathsep + existing if existing else "")
        )
    return env


async def run_soak(config: SoakConfig) -> dict:
    """Run one soak; returns the summary dict (also the last JSONL line)."""
    world = config.world
    metrics = _Metrics(config.metrics_path)
    loop = asyncio.get_running_loop()
    start_t = loop.time()

    def t() -> float:
        return round(loop.time() - start_t, 4)

    server_ids = list(range(config.n_peers + 1))  # node 0 is the seed
    client_id = CLIENT_ID_BASE
    routes = {
        node_id: ("127.0.0.1", _free_udp_port())
        for node_id in server_ids + [client_id]
    }
    routes_spec = format_routes(routes)
    env = _child_env()

    servers = {
        node_id: _ServerProc(node_id, _node_cmd(node_id, routes_spec, config), env)
        for node_id in server_ids
    }
    transport = AsyncioTransport(
        loss_probability=config.loss,
        loss_seed=config.seed * 31 + client_id,
    )
    hooks = _ClientHooks()
    client = None
    chaos_task: asyncio.Task | None = None
    beat_task: asyncio.Task | None = None
    counts = {
        "queries": 0,
        "queries_ok": 0,
        "fetches": 0,
        "fetches_ok": 0,
    }

    try:
        for server in servers.values():
            await server.start()
        metrics.emit({"event": "servers_up", "t": t(), "n": len(servers)})

        await transport.start(*routes[client_id])
        transport.set_routes(routes)
        bootstrapped = loop.create_future()
        client = LiveClientPeer(
            client_id,
            capacity_units=1.0,
            rng=np.random.default_rng(config.seed),
            hooks=hooks,
            config=live_peer_config(world),
            jitter_rng=np.random.default_rng(config.seed + 1),
            transport=transport,
            on_bootstrap=lambda: (
                None if bootstrapped.done() else bootstrapped.set_result(True)
            ),
        )
        for attempt in range(5):
            client.start_join(0)
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(asyncio.shield(bootstrapped), 2.0)
                break
        if not bootstrapped.done():
            raise RuntimeError("client failed to bootstrap off the seed")
        metrics.emit({"event": "bootstrapped", "t": t()})

        async def heartbeats() -> None:
            while True:
                client.heartbeat_once()
                await asyncio.sleep(config.heartbeat_interval)

        beat_task = asyncio.create_task(heartbeats())

        victim = max(i for i in server_ids if i != 0)
        chaos_state: dict = {"restart_recovered": None, "restart_served": None}

        async def probe_victim() -> bool:
            """Fetch one document with the restarted victim as the only
            chunk source: succeeds only if the recovered holdings are
            actually being served again."""
            doc_id = 0
            if doc_id in client.docs:
                client.drop_document(doc_id)
            manifest = world.manifest(doc_id)
            sources = {i: (victim,) for i in range(manifest.n_chunks)}
            future = loop.create_future()

            def on_done(fetch_id: int, ok: bool, reason: str) -> None:
                if not future.done():
                    future.set_result(ok)

            client.content_state.start_fetch(
                2 * _FETCH_ID_BASE,
                world.doc_info(doc_id),
                manifest,
                sources_fn=lambda: sources,
                on_done=on_done,
            )
            try:
                ok = await asyncio.wait_for(future, _FETCH_TIMEOUT)
            except asyncio.TimeoutError:
                ok = False
            if ok:
                client.drop_document(doc_id)
            return ok

        async def chaos() -> None:
            await asyncio.sleep(config.duration / 3)
            servers[victim].kill()
            metrics.emit({"event": "kill", "t": t(), "node": victim})
            await asyncio.sleep(config.duration / 3)
            replacement = _ServerProc(
                victim, _node_cmd(victim, routes_spec, config), env
            )
            await replacement.start()
            servers[victim] = replacement
            metrics.emit({
                "event": "restart",
                "t": t(),
                "node": victim,
                "recovered": replacement.recovered,
            })
            if config.state_dir is not None:
                chaos_state["restart_recovered"] = replacement.recovered
                served = await probe_victim()
                chaos_state["restart_served"] = served
                metrics.emit({
                    "event": "restart_probe",
                    "t": t(),
                    "node": victim,
                    "ok": served,
                })

        if config.kill_restart:
            chaos_task = asyncio.create_task(chaos())

        async def one_query(query_id: int) -> None:
            future = loop.create_future()
            hooks.futures[query_id] = future
            issued = loop.time()
            client.start_query(
                query_id, query_id % world.n_categories, 1
            )
            try:
                ok, reason = await asyncio.wait_for(future, _QUERY_TIMEOUT)
            except asyncio.TimeoutError:
                hooks.futures.pop(query_id, None)
                ok, reason = False, "timeout"
            counts["queries"] += 1
            counts["queries_ok"] += int(ok)
            metrics.emit({
                "event": "query",
                "t": t(),
                "id": query_id,
                "ok": ok,
                "reason": reason,
                "latency_s": round(loop.time() - issued, 6),
            })

        async def one_fetch(fetch_index: int) -> None:
            doc_id = fetch_index % world.n_docs
            if doc_id in client.docs:
                client.drop_document(doc_id)
            manifest = world.manifest(doc_id)
            info = world.doc_info(doc_id)
            sources = {
                i: tuple(server_ids) for i in range(manifest.n_chunks)
            }
            future = loop.create_future()

            def on_done(fetch_id: int, ok: bool, reason: str) -> None:
                if not future.done():
                    future.set_result((ok, reason))

            issued = loop.time()
            client.content_state.start_fetch(
                _FETCH_ID_BASE + fetch_index,
                info,
                manifest,
                sources_fn=lambda: sources,
                on_done=on_done,
            )
            try:
                ok, reason = await asyncio.wait_for(future, _FETCH_TIMEOUT)
            except asyncio.TimeoutError:
                ok, reason = False, "timeout"
            if ok:
                client.drop_document(doc_id)  # keep later refetches honest
            counts["fetches"] += 1
            counts["fetches_ok"] += int(ok)
            metrics.emit({
                "event": "fetch",
                "t": t(),
                "doc": doc_id,
                "chunks": manifest.n_chunks,
                "ok": ok,
                "reason": reason,
                "latency_s": round(loop.time() - issued, 6),
            })

        interval = config.duration / max(config.n_queries, 1)
        fetch_every = max(1, config.n_queries // max(config.n_fetches, 1))
        workload_start = loop.time()
        for i in range(config.n_queries):
            delay = workload_start + i * interval - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            await one_query(i + 1)
            if i % fetch_every == 0 and counts["fetches"] < config.n_fetches:
                await one_fetch(counts["fetches"])
        while counts["fetches"] < config.n_fetches:
            await one_fetch(counts["fetches"])

        if chaos_task is not None:
            # The restart must land inside the run for the soak to count.
            await asyncio.wait_for(chaos_task, config.duration)
            chaos_task = None
    finally:
        if beat_task is not None:
            beat_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await beat_task
        if chaos_task is not None:
            chaos_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await chaos_task
        for server in servers.values():
            await server.stop()
        await transport.stop()

    total = counts["queries"] + counts["fetches"]
    total_ok = counts["queries_ok"] + counts["fetches_ok"]
    success_rate = total_ok / total if total else 0.0
    # With persistence on, the soak additionally gates on the restarted
    # victim having recovered its full corpus from its state dir *and*
    # served it again (the probe fetch names it as the only source).
    restart_ok = True
    if config.kill_restart and config.state_dir is not None:
        restart_ok = (
            chaos_state["restart_recovered"] == world.n_docs
            and chaos_state["restart_served"] is True
        )
    summary = {
        "event": "summary",
        "t": t(),
        "queries": counts["queries"],
        "queries_ok": counts["queries_ok"],
        "fetches": counts["fetches"],
        "fetches_ok": counts["fetches_ok"],
        "success_rate": round(success_rate, 6),
        "min_success": config.min_success,
        "passed": success_rate >= config.min_success and restart_ok,
        "kill_restart": config.kill_restart,
        "persistence": config.state_dir is not None,
        "restart_recovered_docs": chaos_state["restart_recovered"],
        "restart_probe_ok": chaos_state["restart_served"],
        "loss": config.loss,
        "n_peers": config.n_peers,
        "client_decode_errors": transport.decode_errors,
        "client_messages_sent": transport.stats.messages_sent,
        "client_messages_dropped": transport.stats.messages_dropped,
    }
    metrics.emit(summary)
    metrics.close()
    return summary


def run_soak_sync(config: SoakConfig) -> dict:
    """Blocking wrapper for CLI and test use."""
    return asyncio.run(run_soak(config))
