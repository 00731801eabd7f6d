"""Micro benchmarks: one simulator-core operation per spec, in a tight loop.

Each spec builds its own small world inside the measured callable so that
repeats are independent; sizes scale linearly with the CLI ``--size``
multiplier, letting CI run the same suite cheaply.
"""

from __future__ import annotations

import numpy as np

from repro.bench.core import BenchSpec
from repro.model.zipf import ZipfSampler
from repro.overlay.peer import DocInfo, Peer, PeerConfig
from repro.overlay.service import ServiceConfig
from repro.sim.engine import Simulator
from repro.sim.network import Network

__all__ = ["specs"]


def _engine_churn_fn(n_events: int):
    def fn():
        sim = Simulator()
        remaining = [n_events]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return {"events_per_s": float(n_events)}

    return fn


def _network_fn(n_messages: int, n_nodes: int):
    def fn():
        sim = Simulator()
        network = Network(sim, base_latency=0.01, bandwidth=None)
        delivered = [0]

        def handler(message) -> None:
            delivered[0] += 1

        for node_id in range(n_nodes):
            network.register(node_id, handler)
        for i in range(n_messages):
            network.transmit(
                src=i % n_nodes,
                dst=(i + 1) % n_nodes,
                kind="bench",
                payload=None,
            )
        sim.run()
        assert delivered[0] == n_messages
        return {"messages_per_s": float(n_messages)}

    return fn


def _zipf_fn(n_items: int, n_samples: int):
    sampler = ZipfSampler(n_items, 0.8)

    def fn():
        rng = np.random.default_rng(1234)
        sampler.sample(rng, n_samples)
        return {"samples_per_s": float(n_samples)}

    return fn


def _service_queue_fn(n_queries: int):
    # The service-queue hot path: every query at the server goes through
    # offer -> (enqueue | begin) -> complete.  Queries arrive in bursts of
    # four against a drain budget that clears them, so the run exercises
    # both the pass-through and the enqueue/dequeue branches without ever
    # shedding (shedding would make the work data-dependent).
    service_time = 0.00025
    burst_interval = 0.0011

    def fn():
        sim = Simulator()
        network = Network(sim, base_latency=0.0001, bandwidth=None)
        rng = np.random.default_rng(99)
        server = Peer(
            node_id=1,
            capacity_units=1.0,
            transport=network,
            rng=rng,
            config=PeerConfig(
                service=ServiceConfig(
                    enabled=True,
                    base_service_time=service_time,
                    queue_capacity=32,
                )
            ),
        )
        client = Peer(node_id=0, capacity_units=1.0, transport=network, rng=rng)
        server.join_cluster(0, known_members=[1])
        server.dcrt.set(0, 0)
        server.store_document(
            DocInfo(doc_id=1, categories=(0,), size_bytes=1000)
        )
        client.dcrt.set(0, 0)
        client.nrt.add(0, 1)
        for i in range(n_queries):
            sim.schedule_at(
                (i // 4) * burst_interval,
                lambda q=i: client.start_query(q, 0, 1, target_doc_id=1),
            )
        sim.run()
        snapshot = server.service_snapshot()
        assert snapshot["processed"] == n_queries, snapshot
        return {"service_queries_per_s": float(n_queries)}

    return fn


def _replication_rounds_fn(n_rounds: int):
    # The replication-manager control loop: each round reads per-category
    # demand signals over every peer, ranks hot documents, and decides
    # grow/shrink.  Demand oscillates (two hot rounds, then quiet) so the
    # measured churn covers all three decision branches — grow with real
    # transfer pulls, the hysteresis dead band, and the slow shrink.
    from repro.core.maxfair import maxfair
    from repro.core.popularity import build_category_stats
    from repro.core.replication import plan_replication
    from repro.model.system import SystemConfig, build_system
    from repro.overlay.replication_manager import ReplicationConfig
    from repro.overlay.system import P2PSystem, P2PSystemConfig

    def fn():
        instance = build_system(SystemConfig(
            seed=7,
            n_docs=200,
            n_nodes=12,
            n_categories=12,
            n_clusters=4,
            doc_size_bytes=65_536,
        ))
        stats = build_category_stats(instance)
        assignment = maxfair(instance, stats=stats)
        plan = plan_replication(instance, assignment, n_reps=2, hot_mass=0.35)
        system = P2PSystem(
            instance,
            assignment,
            plan=plan,
            config=P2PSystemConfig(
                seed=7,
                cache_capacity=8,
                replication=ReplicationConfig(enabled=True, shrink_after=2),
            ),
        )
        manager = system.replication
        hot_category = min(manager._category_docs)
        holder = system.peers_in_cluster(
            int(system.assignment.category_to_cluster[hot_category])
        )[0]
        for i in range(n_rounds):
            if i % 8 < 2:
                holder.hit_counters[hot_category] = (
                    holder.hit_counters.get(hot_category, 0) + 10_000
                )
            system.run_replication_round()
        assert manager.rounds_run == n_rounds
        return {"replication_rounds_per_s": float(n_rounds)}

    return fn


def _chunk_fetch_fn(n_fetches: int):
    # The content data plane's hot path: a multi-source fetch resolves
    # per-chunk sources rarest-first, requests every chunk, verifies
    # hashes, and stores the document.  Fetches rotate over documents
    # and requesters so each one does real work (the requester must not
    # already hold the target).
    from repro.content.chunks import ContentConfig
    from repro.core.maxfair import maxfair
    from repro.core.popularity import build_category_stats
    from repro.core.replication import plan_replication
    from repro.model.system import SystemConfig, build_system
    from repro.overlay.system import P2PSystem, P2PSystemConfig

    def fn():
        instance = build_system(SystemConfig(
            seed=7,
            n_docs=200,
            n_nodes=12,
            n_categories=12,
            n_clusters=4,
            doc_size_bytes=262_144,
        ))
        stats = build_category_stats(instance)
        assignment = maxfair(instance, stats=stats)
        plan = plan_replication(instance, assignment, n_reps=2, hot_mass=0.35)
        system = P2PSystem(
            instance,
            assignment,
            plan=plan,
            config=P2PSystemConfig(
                seed=7,
                content=ContentConfig(enabled=True),
            ),
        )
        manager = system.content
        doc_ids = sorted(manager.manifests)
        alive = [peer.node_id for peer in system.alive_peers()]
        started = 0
        attempt = 0
        # Walk every (document, requester) pair exactly once per cycle: a
        # pair only yields no work when the requester already holds the
        # document, so progress is guaranteed until holders saturate.
        max_attempts = len(doc_ids) * len(alive)
        while started < n_fetches and attempt < max_attempts:
            doc_id = doc_ids[attempt % len(doc_ids)]
            requester = alive[(attempt // len(doc_ids)) % len(alive)]
            attempt += 1
            fetch_id = manager.fetch(requester, doc_id)
            if fetch_id is None:
                continue
            started += 1
            system.sim.run()
        assert started == n_fetches, (started, n_fetches)
        records = manager.fetch_ledger()
        assert all(
            record.completed_at is not None and record.verified
            for record in records
        ), "bench fetches must all complete verified"
        return {"chunk_fetches_per_s": float(started)}

    return fn


def _scenario_step_fn(n_events: int):
    # The scenario engine's expansion hot path: one fully-modulated spec
    # (diurnal + regional offsets + drift + a skew flip) expanded into a
    # deterministic event stream.  The world is built once outside the
    # timed callable (like _zipf_fn's sampler) so repeats measure only
    # generation: the windowed rate math, the time-varying Zipf draws,
    # and the joint time sort.
    from repro.model.system import SystemConfig, build_system
    from repro.scenario import (
        DiurnalSpec,
        DriftSpec,
        ScenarioSpec,
        SkewFlipSpec,
        generate_events,
    )

    instance = build_system(SystemConfig(
        seed=7,
        n_docs=200,
        n_nodes=16,
        n_categories=12,
        n_clusters=4,
        doc_size_bytes=65_536,
    ))
    duration = 40.0
    spec = ScenarioSpec(
        name="bench",
        seed=7,
        duration=duration,
        base_rate=n_events / duration,
        n_regions=4,
        window=0.5,
        diurnal=DiurnalSpec(
            period=10.0,
            amplitude=0.8,
            regional_offsets=(0.0, 0.25, 0.5, 0.75),
        ),
        drift=DriftSpec(ranks_per_unit=2.0),
        flips=(SkewFlipSpec(at=duration / 2.0, mass=0.4, n_hot=4),),
    )

    def fn():
        stream = generate_events(spec, instance)
        return {"scenario_events_per_s": float(len(stream))}

    return fn


def _rate_post(key: str):
    """Turn a work count stashed in ``extra`` into a per-second rate."""

    def post(result):
        work = result.extra.get(key, 0.0)
        if result.median_s <= 0:
            return {}
        return {key: work / result.median_s}

    return post


def specs(size: float = 1.0) -> list[BenchSpec]:
    """The micro suite, with work sizes scaled by ``size``."""
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    n_events = max(1000, int(20_000 * size))
    n_messages = max(1000, int(10_000 * size))
    n_samples = max(10_000, int(200_000 * size))
    n_service = max(2000, int(20_000 * size))
    n_rounds = max(40, int(400 * size))
    n_fetches = max(50, int(400 * size))
    n_scenario = max(5_000, int(50_000 * size))
    return [
        BenchSpec(
            name="engine_event_churn",
            kind="micro",
            description="heap schedule/pop throughput of the DES engine",
            unit=f"s / {n_events} events",
            fn=_engine_churn_fn(n_events),
            post=_rate_post("events_per_s"),
        ),
        BenchSpec(
            name="network_send_deliver",
            kind="micro",
            description="fault-free Network.transmit + deliver round trips",
            unit=f"s / {n_messages} messages",
            fn=_network_fn(n_messages, n_nodes=64),
            post=_rate_post("messages_per_s"),
        ),
        BenchSpec(
            name="zipf_sampling",
            kind="micro",
            description="precomputed-CDF Zipf sampling (ZipfSampler)",
            unit=f"s / {n_samples} samples",
            fn=_zipf_fn(n_items=20_000, n_samples=n_samples),
            post=_rate_post("samples_per_s"),
        ),
        BenchSpec(
            name="service_queue",
            kind="micro",
            description="bounded service queue offer/enqueue/complete churn",
            unit=f"s / {n_service} served queries",
            fn=_service_queue_fn(n_service),
            post=_rate_post("service_queries_per_s"),
        ),
        BenchSpec(
            name="replication_manager",
            kind="micro",
            description=(
                "adaptive replication control rounds (signals + "
                "grow/shrink churn)"
            ),
            unit=f"s / {n_rounds} control rounds",
            fn=_replication_rounds_fn(n_rounds),
            post=_rate_post("replication_rounds_per_s"),
        ),
        BenchSpec(
            name="chunk_fetch",
            kind="micro",
            description=(
                "multi-source chunk fetches (rarest-first scheduling + "
                "hash verification + store)"
            ),
            unit=f"s / {n_fetches} fetches",
            fn=_chunk_fetch_fn(n_fetches),
            post=_rate_post("chunk_fetches_per_s"),
        ),
        BenchSpec(
            name="scenario_step",
            kind="micro",
            description=(
                "scenario-engine event generation (diurnal + drift + "
                "skew-flip modulated stream)"
            ),
            unit=f"s / ~{n_scenario} events",
            fn=_scenario_step_fn(n_scenario),
            post=_rate_post("scenario_events_per_s"),
        ),
    ]
