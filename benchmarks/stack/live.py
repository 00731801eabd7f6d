"""``live_query_loopback``: the overlay over real UDP sockets, in one loop.

One event loop, two ``AsyncioTransport`` sockets on 127.0.0.1 (JSON codec, no
injected loss).  One transport hosts four fully stocked servers, the other a
``LiveClientPeer`` bootstrapped by ``start_join(0)``.  Traffic between client
and servers crosses the host's loopback interface, never a real link; traffic
between servers takes the transport's local path, which still pays the codec.

Three phases share ``--seconds``:

A. closed loop, 2 queries in flight, segments of 1,000 queries: ``ops_per_s``,
   and ``op_latency_ms`` as the median over the segments of each segment's
   median time from issue to answer.  Client and servers share the loop, so
   throughput is 1 / (client cost + server cost) per query, and with a fixed
   number in flight latency is that number over the throughput.
B. open loop at a fixed ``RATE`` queries per second, far below saturation,
   each query timed from the moment it was due:
   ``live.client.latency_p50_ms``, ``latency_p99_ms``, ``lateness_p99_ms``.
   Not end-to-end metrics: a quarter of a millisecond measured on a shared
   box spreads by 10 to 20 % from run to run even when scaled by the host's
   speed, which moves within a tenth of a second.
C. closed loop, 1 fetch in flight, segments of 200 four-chunk fetches, the
   document dropped after each: ``live.client.fetches_per_s``.
"""

from __future__ import annotations

import asyncio
import gc
import statistics
from time import perf_counter

import numpy as np

from harness import HostSpeed, Measured, Segment, ratio
from layers import Aggregates
from repro.core.fairness import jain_fairness
from repro.live import (
    CLIENT_ID_BASE,
    AsyncioTransport,
    LiveClientPeer,
    LiveWorld,
    build_server_peer,
    live_peer_config,
)
from repro.overlay.peer import PeerHooks
from workloads import obs_snapshot

RATE = 1000.0
#: shares of ``--seconds`` given to the phases A, B and C.
SHARES = (0.5, 0.2, 0.3)
MIN_SEGMENTS = 3
HEARTBEAT_INTERVAL = 0.5
_FETCH_ID_BASE = 1_000_000


class _ClientHooks(PeerHooks):
    """Routes query outcomes to per-query callbacks."""

    def __init__(self) -> None:
        self.waiting: dict = {}
        self.hops: list[int] = []

    def on_query_response(self, peer, response) -> None:
        done = self.waiting.pop(response.query_id, None)
        if done is not None:
            self.hops.append(response.hops)
            done(bool(response.doc_ids))

    def on_query_failed(self, peer, query_id: int, reason: str) -> None:
        done = self.waiting.pop(query_id, None)
        if done is not None:
            done(False)


class LiveLoopback:
    name = "live_query_loopback"
    #: set-up takes milliseconds here, so that more repeats cost nothing.
    setup_repeats = 15
    world = LiveWorld(n_docs=64, n_categories=8)
    server_ids = [0, 1, 2, 3]

    def __init__(self, queries: int, fetches: int) -> None:
        #: operations in one segment of phase A and of phase C.
        self.queries = queries
        self.fetches = fetches
        self.loop = None
        #: the traced run's ``Tracer``.
        self.tracer = None

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def setup(self, seed: int) -> None:
        self.seed = seed
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start(seed))

    async def _start(self, seed: int) -> None:
        loop = asyncio.get_running_loop()
        self.server_transport = AsyncioTransport()
        self.client_transport = AsyncioTransport()
        server_address = await self.server_transport.start()
        client_address = await self.client_transport.start()
        for node_id in self.server_ids:
            self.client_transport.add_route(node_id, *server_address)
        self.server_transport.add_route(CLIENT_ID_BASE, *client_address)
        self.servers = [
            build_server_peer(
                node_id, self.server_transport, self.world, self.server_ids,
                seed=seed,
            )
            for node_id in self.server_ids
        ]
        self.hooks = _ClientHooks()
        bootstrapped = loop.create_future()
        self.client = LiveClientPeer(
            CLIENT_ID_BASE,
            capacity_units=1.0,
            rng=np.random.default_rng(seed),
            hooks=self.hooks,
            config=live_peer_config(self.world),
            jitter_rng=np.random.default_rng(seed + 1),
            transport=self.client_transport,
            on_bootstrap=lambda: bootstrapped.done()
            or bootstrapped.set_result(True),
        )
        self.client.start_join(0)
        await asyncio.wait_for(bootstrapped, 10.0)
        self.next_query_id = 0
        self.heartbeat_rounds = 0
        self.heartbeat_task = loop.create_task(self._heartbeats())

    async def _heartbeats(self) -> None:
        """The servers' failure-detector rounds, as ``run_node`` paces them.

        Pings and pongs between servers are the traffic that takes the
        transport's local path.
        """
        while True:
            self.heartbeat_rounds += 1
            for server in self.servers:
                server.heartbeat_once()
            await asyncio.sleep(HEARTBEAT_INTERVAL)

    def teardown(self) -> None:
        if self.loop is None:
            return
        self.heartbeat_task.cancel()
        self.loop.run_until_complete(
            asyncio.gather(self.heartbeat_task, return_exceptions=True)
        )
        self.loop.run_until_complete(self.client_transport.stop())
        self.loop.run_until_complete(self.server_transport.stop())
        self.loop.close()
        self.loop = None

    # ------------------------------------------------------------------
    # the three phases
    # ------------------------------------------------------------------
    def _query(self, done) -> None:
        self.next_query_id += 1
        query_id = self.next_query_id
        self.hooks.waiting[query_id] = done
        self.client.start_query(query_id, query_id % self.world.n_categories, 1)

    async def _closed_loop_queries(self, count: int, in_flight: int):
        """``count`` queries, ``in_flight`` at a time.

        Returns the failures and each query's seconds from issue to answer.
        """
        loop = asyncio.get_running_loop()
        finished = loop.create_future()
        latencies: list[float] = []
        state = {"issued": 0, "failed": 0}

        def issue() -> None:
            state["issued"] += 1
            issued_at = loop.time()

            def done(ok: bool) -> None:
                latencies.append(loop.time() - issued_at)
                state["failed"] += not ok
                if state["issued"] < count:
                    issue()
                elif len(latencies) == count:
                    finished.set_result(None)

            self._query(done)

        for _ in range(in_flight):
            issue()
        await finished
        return state["failed"], latencies

    async def _open_loop_queries(self, count: int):
        """``count`` queries at ``RATE`` per second, timed from due time."""
        loop = asyncio.get_running_loop()
        finished = loop.create_future()
        latencies: list[float] = []
        lateness: list[float] = []
        failed = [0]
        start = loop.time() + 0.01

        def fire(due: float) -> None:
            lateness.append(loop.time() - due)

            def done(ok: bool) -> None:
                failed[0] += not ok
                latencies.append(loop.time() - due)
                if len(latencies) == count:
                    finished.set_result(None)

            self._query(done)

        for index in range(count):
            due = start + index / RATE
            # The loop's timers round up to a millisecond, a whole period at
            # this rate: sleep to within one, then yield until it is time.
            delay = due - loop.time() - 0.001
            if delay > 0:
                await asyncio.sleep(delay)
            while loop.time() < due:
                await asyncio.sleep(0)
            fire(due)
        await finished
        return latencies, lateness, failed[0]

    async def _fetches(self, count: int, rng):
        """``count`` chunked fetches, one at a time; returns the failures
        (and no result)."""
        loop = asyncio.get_running_loop()
        client, world = self.client, self.world
        failed = 0
        for doc_id in rng.integers(0, world.n_docs, size=count).tolist():
            manifest = world.manifest(doc_id)
            sources = {
                index: tuple(self.server_ids)
                for index in range(manifest.n_chunks)
            }
            finished = loop.create_future()
            self.next_fetch_id += 1
            client.content_state.start_fetch(
                self.next_fetch_id,
                world.doc_info(doc_id),
                manifest,
                sources_fn=lambda: sources,
                on_done=lambda fetch_id, ok, reason: finished.set_result(ok),
            )
            if await finished:
                # Dropped, so that the next fetch of it moves bytes again.
                client.drop_document(doc_id)
            else:
                failed += 1
        return failed, None

    # ------------------------------------------------------------------
    # measuring
    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> Measured:
        watchdog = 3.0 * seconds + 60.0
        return self.loop.run_until_complete(
            asyncio.wait_for(self._measure(seconds), watchdog)
        )

    async def _segments(self, seconds: float, run, size: int):
        """Time ``run()`` in segments for ``seconds``.

        ``run`` returns its failures and a result; returns the segments and,
        per segment, ``scale(result)`` by the segment's host speed.
        """
        segments: list[Segment] = []
        results = []
        began = perf_counter()
        while len(segments) < MIN_SEGMENTS or perf_counter() - began < seconds:
            gc.collect()
            with HostSpeed() as host:
                failed, result = await run()
            segments.append(Segment(size, failed, host.seconds, host.speed))
            results.append((result, host))
        return segments, results

    def _sent(self):
        return {
            "chunk_requests": self.client_transport.stats.by_kind.get(
                "chunk_request", 0
            ),
            "served": [peer.requests_served for peer in self.servers],
        }

    async def _measure(self, seconds: float) -> Measured:
        measured = Measured()
        rng = np.random.default_rng([self.seed, 1])
        self.next_fetch_id = _FETCH_ID_BASE
        warm_queries = max(1, self.queries // 2)
        warm_fetches = max(1, self.fetches // 4)
        warm_failed, _ = await self._closed_loop_queries(warm_queries, 2)
        warm_failed += (await self._fetches(warm_fetches, rng))[0]
        measured.warmup_attempted = warm_queries + warm_fetches
        measured.warmup_failed = warm_failed
        if self.tracer is not None:
            self.tracer.reset()
        self.hooks.hops.clear()
        obs_before, sent_before = obs_snapshot(), self._sent()
        rounds_before = self.heartbeat_rounds

        # Phase A.
        measured.segments, results = await self._segments(
            SHARES[0] * seconds,
            lambda: self._closed_loop_queries(self.queries, 2),
            self.queries,
        )
        measured.op_latency_ms = 1000.0 * statistics.median(
            host.scale(float(np.percentile(latencies, 50)))
            for latencies, host in results
        )
        traced = {}
        if self.tracer is not None:
            # Wall time per query minus all measured self time: what asyncio
            # and the kernel's UDP path take.
            wall_ns = measured.timed_seconds * 1e9
            self_ns = Aggregates(self.tracer.totals()).self_ns()
            measured.coverage = self_ns / wall_ns
            traced["live.loop.residual_us_per_op"] = (
                (wall_ns - self_ns) / measured.timed_ops / 1e3
            )

        # Phase B.
        count = max(100, int(RATE * SHARES[1] * seconds))
        latencies, lateness, failed = await self._open_loop_queries(count)
        measured.other_attempted = count
        measured.other_failed = failed
        sent_queries = self._sent()
        encoded = ("transport.wire", "encode")
        wire_bytes = self.tracer.sums[encoded] if self.tracer else 0

        # Phase C.
        fetch_segments, _ = await self._segments(
            SHARES[2] * seconds,
            lambda: self._fetches(self.fetches, rng),
            self.fetches,
        )
        fetches = sum(s.attempted for s in fetch_segments)
        fetch_failures = sum(s.failed for s in fetch_segments)
        measured.other_attempted += fetches
        measured.other_failed += fetch_failures

        obs_after, sent_after = obs_snapshot(), self._sent()
        d = {key: obs_after[key] - obs_before[key] for key in obs_after}
        queries = sum(s.attempted for s in measured.segments) + count
        ops = queries + fetches
        measured.load_fairness = jain_fairness([
            after - before
            for before, after in zip(
                sent_before["served"], sent_queries["served"]
            )
        ])
        transports = (self.client_transport, self.server_transport)
        to_client = self.client_transport.stats.messages_delivered
        local = self.server_transport.stats.messages_sent - to_client
        chunk_requests = (
            sent_after["chunk_requests"] - sent_before["chunk_requests"]
        )
        chunks = fetches * self.world.manifest(0).n_chunks
        sends = d["reliability.sends"]
        if self.tracer is not None:
            # Frames carry a chunk's declared size, not its bytes.
            traced["content.fetcher.wire_bytes_per_doc_byte"] = ratio(
                self.tracer.sums[encoded] - wire_bytes,
                (fetches - fetch_failures) * self.world.doc_size_bytes,
            )
        measured.counts = {
            **traced,
            "live.transport.local_share": ratio(
                local, sum(t.stats.messages_sent for t in transports)
            ),
            "live.transport.dropped": sum(
                t.stats.messages_dropped for t in transports
            ),
            "live.transport.decode_errors": sum(
                t.decode_errors for t in transports
            ),
            "live.client.latency_p50_ms": float(
                np.percentile(latencies, 50)
            ) * 1000.0,
            "live.client.latency_p99_ms": float(
                np.percentile(latencies, 99)
            ) * 1000.0,
            "live.client.lateness_p99_ms": float(
                np.percentile(lateness, 99)
            ) * 1000.0,
            "live.client.fetches_per_s": statistics.median(
                s.rate for s in fetch_segments
            ),
            "reliability.channel.sends_per_op": ratio(sends, ops),
            "reliability.channel.retry_share": ratio(
                d["reliability.retries"], sends
            ),
            "reliability.channel.duplicate_share": ratio(
                d["reliability.duplicates_suppressed"], sends
            ),
            "reliability.channel.failovers_per_op": ratio(
                d["reliability.query_failovers"], queries
            ),
            "reliability.channel.dead_letters": sum(
                peer.channel.dead_letters
                for peer in (*self.servers, self.client)
            ),
            "reliability.detector.probes_per_round": ratio(
                d["reliability.probes"], self.heartbeat_rounds - rounds_before
            ),
            "overlay.peer.hops_mean": float(np.mean(self.hooks.hops)),
            "overlay.peer.forwards_per_query": ratio(
                d["overlay.queries_forwarded"], queries
            ),
            "content.fetcher.chunks_per_fetch": ratio(chunk_requests, fetches),
            "content.fetcher.failover_share": ratio(
                chunk_requests - chunks, chunk_requests
            ),
        }
        handler_errors = sum(t.handler_errors for t in transports)
        for label, value in (
            ("failed operations", measured.failed),
            ("decode errors", measured.counts["live.transport.decode_errors"]),
            ("handler errors", handler_errors),
        ):
            if value:
                measured.problems.append(f"{value} {label}")
        return measured
