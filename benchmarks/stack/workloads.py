"""The three simulated workloads and the placement workload.

Sizes are chosen so that one set-up takes at most about two seconds on the
reference box (it is repeated three times in a run) and one segment about
half a second.  README.md gives the rationale for each workload.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from time import perf_counter

import numpy as np

from harness import (
    EXACT_SEGMENTS,
    REPO_ROOT,
    Measured,
    ratio,
    run_segments,
)
from repro import obs
from repro.content.chunks import ContentConfig
from repro.core.fairness import jain_fairness
from repro.durability import DurabilityConfig, durable_state, encode_snapshot
from repro.model.system import SystemConfig
from repro.model.workload import make_query_workload
from repro.overlay.replication_manager import ReplicationConfig
from repro.overlay.service import ServiceConfig
from repro.overlay.system import P2PSystem, P2PSystemConfig
from repro.reliability import ReliabilityConfig

# Looked up through their modules at call time, so that the traced run's
# wrappers (installed on the modules) are the ones called.  Not
# ``import a.b as c``: the packages re-export functions under their module's
# name (``repro.core.maxfair`` is a function).
_system = importlib.import_module("repro.model.system")
_workload = importlib.import_module("repro.model.workload")
_popularity = importlib.import_module("repro.core.popularity")
_maxfair = importlib.import_module("repro.core.maxfair")
_replication = importlib.import_module("repro.core.replication")
_reassign = importlib.import_module("repro.core.reassign")

#: message loss injected on the lossy workloads, from the ``loss.drop`` stream.
LOSS = 0.02

_OBS_COUNTERS = (
    "reliability.sends",
    "reliability.retries",
    "reliability.duplicates_suppressed",
    "reliability.query_failovers",
    "reliability.probes",
    "overlay.queries_forwarded",
    "replication.replicas_added",
    "replication.replicas_removed",
    "content.fetches",
    "content.chunk_failovers",
    "content.read_repairs",
    "content.heal_fetches",
    "content.bytes_fetched",
)


def _placed_world(instance, config: P2PSystemConfig, lossy: bool) -> P2PSystem:
    """Stats, MaxFair, replica plan and a bootstrapped ``P2PSystem``."""
    stats = _popularity.build_category_stats(instance)
    assignment = _maxfair.maxfair(instance, stats=stats)
    plan = _replication.plan_replication(
        instance, assignment, n_reps=2, hot_mass=0.35
    )
    system = P2PSystem(instance, assignment, plan=plan, config=config)
    if lossy:
        system.network.rng = system.rngs.stream("loss.drop")
        system.network.set_drop_probability(LOSS)
    return system


def obs_snapshot() -> dict:
    """The process-wide counters the per-layer counts are made from."""
    found = ((name, obs.REGISTRY.get(name)) for name in _OBS_COUNTERS)
    return {name: metric.value if metric else 0 for name, metric in found}


def _snapshot(system: P2PSystem) -> dict:
    """Cumulative counters of every layer, read at a quiescent point."""
    sim, stats = system.sim, system.network.stats
    snap = obs_snapshot()
    snap.update(
        events=sim.events_processed,
        # No public counter of scheduled events exists; the sequence number
        # is one.
        scheduled=sim._seq,
        pending=sim.pending(),
        msgs=stats.messages_sent,
        bytes=stats.bytes_sent,
        dropped=stats.messages_dropped,
        chunk_requests=stats.by_kind.get("chunk_request", 0),
    )
    totals = dict.fromkeys(
        ("routed", "dead_letters", "offered", "shed", "redirected",
         "max_depth", "fills", "evictions", "cache_hits", "records",
         "compactions"), 0,
    )
    served: dict[int, int] = {}
    for peer in system.alive_peers():
        node_id = peer.node_id
        served[node_id] = peer.requests_served
        totals["routed"] += peer.queries_routed
        totals["dead_letters"] += peer.channel.dead_letters
        service = peer.service_snapshot()
        if service is not None:
            totals["offered"] += service["offered"]
            totals["shed"] += service["shed"]
            totals["redirected"] += service["redirected"]
            totals["max_depth"] = max(totals["max_depth"], service["max_depth"])
        cache = peer.cache_stats()
        totals["fills"] += cache["fills"]
        totals["evictions"] += cache["evictions"]
        totals["cache_hits"] += cache["served_hits"]
        journal = system.journal(node_id)
        if journal is not None:
            totals["records"] += journal.records_written
            totals["compactions"] += journal.snapshots_written
    snap.update(totals)
    snap["served"] = served
    return snap


def _layer_counts(before: dict, after: dict, ops: int, rounds: int) -> dict:
    """Per-layer counts and ratios between two snapshots of one world."""
    d = {
        key: after[key] - before[key]
        for key, value in after.items()
        if not isinstance(value, dict)
    }
    sends = d["reliability.sends"]
    return {
        "sim.engine.events_per_op": ratio(d["events"], ops),
        "sim.engine.cancelled_share": ratio(
            d["scheduled"] - d["events"] - d["pending"], d["scheduled"]
        ),
        "sim.network.msgs_per_op": ratio(d["msgs"], ops),
        "sim.network.bytes_per_op": ratio(d["bytes"], ops),
        "sim.network.drop_share": ratio(d["dropped"], d["msgs"]),
        "reliability.channel.sends_per_op": ratio(sends, ops),
        "reliability.channel.retry_share": ratio(
            d["reliability.retries"], sends
        ),
        "reliability.channel.duplicate_share": ratio(
            d["reliability.duplicates_suppressed"], sends
        ),
        "reliability.channel.failovers_per_op": ratio(
            d["reliability.query_failovers"], ops
        ),
        "reliability.channel.dead_letters": d["dead_letters"],
        "reliability.detector.probes_per_round": ratio(
            d["reliability.probes"], rounds
        ),
        "overlay.service.max_depth": after["max_depth"],
        "overlay.service.shed_share": ratio(d["shed"], d["offered"]),
        "overlay.service.redirect_share": ratio(d["redirected"], d["offered"]),
        "overlay.cache.evictions_per_fill": ratio(d["evictions"], d["fills"]),
        "overlay.replication_manager.replicas_added": d[
            "replication.replicas_added"
        ],
        "overlay.replication_manager.replicas_removed": d[
            "replication.replicas_removed"
        ],
        "content.fetcher.chunks_per_fetch": ratio(
            d["chunk_requests"], d["content.fetches"]
        ),
        "content.fetcher.failover_share": ratio(
            d["content.chunk_failovers"], d["chunk_requests"]
        ),
        "content.fetcher.read_repairs": d["content.read_repairs"],
        "content.fetcher.wire_bytes_per_doc_byte": ratio(
            d["bytes"], d["content.bytes_fetched"]
        ),
        "content.healer.heal_fetches_per_round": ratio(
            d["content.heal_fetches"], rounds
        ),
        "durability.journal.records_per_op": ratio(d["records"], ops),
        "durability.journal.compactions": d["compactions"],
    }


class _SimWorkload:
    """Shared measuring loop of the three simulated workloads.

    A subclass's ``segment(inputs)`` returns the operations attempted and
    failed and the simulated latencies of those that succeeded.
    """

    name = ""
    setup_repeats = 5
    #: the traced run's ``Tracer``.
    tracer = None
    system: P2PSystem | None = None
    #: failure-detector, healing and reconciliation rounds in one segment.
    rounds_per_segment = 0
    #: True while the segments of the exact window run.
    in_window = False

    def teardown(self) -> None:
        self.system = None

    def measure(self, seconds: float) -> Measured:
        system = self.system
        window: dict = {"ops": 0, "failed": 0, "latencies": []}
        marks: dict = {}

        def segment(inputs):
            attempted, failed, latencies = self.segment(inputs)
            if self.in_window:
                window["ops"] += attempted - failed
                window["failed"] += failed
                window["latencies"].extend(latencies)
            return attempted, failed

        def after_warmup():
            marks["before"] = _snapshot(system)
            self.in_window = True

        def on_exact_window():
            self.in_window = False
            marks["after"] = _snapshot(system)

        measured = run_segments(
            seconds, self.prepare, segment, self.tracer, after_warmup,
            on_exact_window,
        )
        before, after = marks["before"], marks["after"]
        ops = window["ops"]
        latencies = np.array(window["latencies"])
        counts = _layer_counts(
            before, after, ops, self.rounds_per_segment * EXACT_SEGMENTS
        )
        counts["overlay.system.sim_latency_p50_s"] = float(
            np.percentile(latencies, 50)
        )
        counts["overlay.system.sim_latency_p99_s"] = float(
            np.percentile(latencies, 99)
        )
        counts.update(self.extra_counts(before, after, ops))
        measured.counts = counts
        # The mean, not the median: simulated latencies take a handful of
        # values (hops x link latency), so that a median is one constant.
        measured.op_latency_ms = float(latencies.mean()) * 1000.0
        measured.load_fairness = self.fairness(before, after)
        measured.exact = dict(
            counts,
            op_latency_ms=measured.op_latency_ms,
            load_fairness=measured.load_fairness,
            window_ops=ops,
            window_failed=window["failed"],
        )
        measured.problems = self.gate(measured)
        return measured

    def extra_counts(self, before: dict, after: dict, ops: int) -> dict:
        return {}


class SimQuery(_SimWorkload):
    """Doc-targeted Zipf queries through ``P2PSystem.run_workload``."""

    #: 600 nodes, 6,000 documents, 15 categories, 3 clusters.
    scale = 0.03
    #: Members of each foreign cluster a node knows.  A failover attempt
    #: re-sends the query under its old id, and a member that has seen the id
    #: drops it as a loop; with the default 4, four unlucky attempts use up
    #: every known member and the query can only fail (README.md, "Found
    #: while building").  As many as there are query attempts avoids that.
    nrt_sample = 16

    def __init__(self, name: str, full_stack: bool, queries: int) -> None:
        self.name = name
        self.full_stack = full_stack
        self.queries = queries

    def config(self, seed: int) -> P2PSystemConfig:
        if not self.full_stack:
            return P2PSystemConfig(seed=seed, remote_nrt_sample=self.nrt_sample)
        return P2PSystemConfig(
            seed=seed,
            remote_nrt_sample=self.nrt_sample,
            cache_capacity=8,
            # The protected configuration of the OVERLOAD and CACHE-QOS
            # experiments.  More attempts than the defaults, so that at 2 %
            # loss a delivery or a query exhausts them about once in 10^9
            # and the workload has no failing operation.
            reliability=ReliabilityConfig(
                enabled=True,
                retry_budget_ratio=0.5,
                breaker_threshold=3,
                adaptive_timeout=True,
                max_attempts=8,
                query_attempts=16,
            ),
            service=ServiceConfig(
                enabled=True, queue_capacity=32, policy="redirect"
            ),
            # Thresholds a segment's demand crosses for the hottest
            # categories only, so that the manager both grows and holds.
            replication=ReplicationConfig(
                enabled=True, grow_threshold=0.5, shrink_threshold=0.1
            ),
            content=ContentConfig(enabled=True),
            durability=DurabilityConfig(enabled=True),
        )

    def setup(self, seed: int) -> None:
        self.seed = seed
        instance = _workload.zipf_category_scenario(scale=self.scale, seed=seed)
        config = self.config(seed)
        self.system = _placed_world(instance, config, lossy=self.full_stack)
        self.capacities = self.system.node_capacities()
        self.window_hops: list[int] = []
        if self.full_stack:
            # Offered load is 0.6 of what the peers can serve together.
            capacity = sum(self.capacities.values())
            self.interval = config.service.base_service_time / (0.6 * capacity)
        else:
            self.interval = 0.01

    def prepare(self, index: int):
        return make_query_workload(
            self.system.instance, self.queries, seed=self.seed * 100_003 + index
        )

    def segment(self, workload):
        outcomes = self.system.run_workload(
            workload, query_interval=self.interval
        )
        if self.full_stack:
            self.system.run_replication_round()
        good = [o for o in outcomes if o.succeeded]
        if self.in_window:
            self.window_hops.extend(o.first_response_hops for o in good)
        return len(outcomes), len(outcomes) - len(good), [o.latency for o in good]

    def extra_counts(self, before: dict, after: dict, ops: int) -> dict:
        forwards = (
            after["overlay.queries_forwarded"]
            - before["overlay.queries_forwarded"]
            + after["routed"] - before["routed"]
        )
        served = sum(after["served"].values()) - sum(before["served"].values())
        return {
            "overlay.peer.hops_mean": float(np.mean(self.window_hops)),
            "overlay.peer.forwards_per_query": ratio(forwards, ops),
            "overlay.cache.hit_share": ratio(
                after["cache_hits"] - before["cache_hits"], served
            ),
        }

    def fairness(self, before: dict, after: dict) -> float:
        """Jain index of the queries served per unit of capacity, node by
        node."""
        return jain_fairness([
            (after["served"][node_id] - before["served"][node_id]) / capacity
            for node_id, capacity in sorted(self.capacities.items())
        ])

    def gate(self, measured: Measured) -> list[str]:
        problems = []
        success = 1.0 - ratio(measured.failed, measured.attempted)
        if self.full_stack:
            if success < 0.995:
                problems.append(f"success rate {success:.4f} < 0.995")
            dead = sum(
                peer.channel.dead_letters for peer in self.system.alive_peers()
            )
            if dead:
                problems.append(f"{dead} dead letters")
        elif measured.failed:
            problems.append(f"{measured.failed} queries failed")
        return problems


class SimFetchChurn(_SimWorkload):
    """Amnesia crash, chunked fetches, recovery and repair rounds, in cycles."""

    name = "sim_fetch_churn"
    fetches_per_cycle = 100
    #: candidate (requester, document) pairs per cycle; a pair starts no
    #: fetch when the requester is down or already holds the document.
    candidates_per_cycle = 300

    def __init__(self, cycles: int) -> None:
        self.cycles = self.rounds_per_segment = cycles

    def setup(self, seed: int) -> None:
        self.seed = seed
        instance = _system.build_system(SystemConfig(
            seed=seed,
            n_docs=2000,
            n_nodes=96,
            n_categories=24,
            n_clusters=8,
            doc_size_bytes=262_144,
        ))
        config = P2PSystemConfig(
            seed=seed,
            reliability=ReliabilityConfig(enabled=True),
            # More chunk attempts than the default 4, so that at 2 % loss a
            # fetch exhausts them about once in 10^9.
            content=ContentConfig(enabled=True, max_chunk_attempts=8),
            durability=DurabilityConfig(enabled=True, snapshot_every=64),
        )
        self.system = _placed_world(instance, config, lossy=True)
        self.capacities = self.system.node_capacities()
        self.node_ids = self.system.all_node_ids()
        self.unverified = 0
        self.victims: set[int] = set()
        self.window_records: list = []

    def prepare(self, index: int):
        rng = np.random.default_rng([self.seed, index])
        victims = rng.integers(0, len(self.node_ids), size=self.cycles)
        pairs = make_query_workload(
            self.system.instance,
            self.cycles * self.candidates_per_cycle,
            seed=self.seed * 100_003 + index,
        ).queries
        return [
            (
                self.node_ids[int(victim)],
                pairs[c * self.candidates_per_cycle:
                      (c + 1) * self.candidates_per_cycle],
            )
            for c, victim in enumerate(victims)
        ]

    def segment(self, cycles):
        system, manager = self.system, self.system.content
        records = []
        for victim, pairs in cycles:
            system.power_loss(victim)
            started = []
            for pair in pairs:
                fetch_id = manager.fetch(pair.requester_id, pair.target_doc_id)
                if fetch_id is not None:
                    started.append(manager.record_for(fetch_id))
                    if len(started) == self.fetches_per_cycle:
                        break
            system.sim.run()
            system.recover_node(victim)
            system.run_failure_detector_rounds(1)
            system.run_reconciliation_round()
            system.run_healing_round()
            # Drop what was fetched, so that every cycle meets a world of
            # the same size and segments are equal work.
            for record in started:
                if record.verified:
                    peer = system.peer(record.requester_id)
                    peer.drop_document(record.doc_id)
                    # Defect in the program (README.md, "Found while
                    # building"): ``drop_document`` journals the drop before
                    # it applies it, so a drop record that triggers a
                    # compaction snapshots the document as still held and
                    # truncates itself away.  Compact again from the true
                    # state; once the defect is fixed this never runs.
                    if record.doc_id in peer.journal.durable_doc_ids():
                        peer.journal.compact()
            records.extend(started)
        good = [r for r in records if r.verified]
        self.unverified += len(records) - len(good)
        self.victims.update(victim for victim, _ in cycles)
        if self.in_window:
            self.window_records.extend(good)
        return (
            len(records),
            len(records) - len(good),
            [r.completed_at - r.started_at for r in good],
        )

    def fairness(self, before: dict, after: dict) -> float:
        """Jain index of the chunks fetched per unit of capacity, cluster by
        cluster: the normalized cluster popularity this fetch stream realized.

        Not node by node as on the query workloads: among 96 nodes the
        holders of the few hottest documents decide that index, which then
        says more about the seed than about the system.
        """
        system = self.system
        cluster_of = system.assignment.category_to_cluster
        documents = system.instance.documents
        load = dict.fromkeys(system.cluster_members_view(), 0)
        for record in self.window_records:
            category_id = documents[record.doc_id].categories[0]
            load[int(cluster_of[category_id])] += record.n_chunks
        return jain_fairness([
            load[cluster_id]
            / sum(self.capacities[node_id] for node_id in members)
            for cluster_id, members in system.cluster_members_view().items()
        ])

    def gate(self, measured: Measured) -> list[str]:
        system, manager = self.system, self.system.content
        problems = []
        if self.unverified:
            problems.append(f"{self.unverified} fetches not verified")
        orphans = sum(
            1 for doc_id in manager.manifests if not manager.live_holders(doc_id)
        )
        if orphans:
            problems.append(f"{orphans} documents without a live holder")
        for node_id in sorted(self.victims):
            peer, journal = system.peer(node_id), system.journal(node_id)
            live = encode_snapshot(durable_state(peer, journal.flags))
            if encode_snapshot(journal.load()) != live:
                problems.append(
                    f"node {node_id}: journal replay differs from live state"
                )
        return problems


class Placement:
    """The paper's placement pipeline, one fresh instance per operation."""

    name = "placement_paper"
    setup_repeats = 5
    tracer = None
    #: 1,600 nodes, 16,000 documents, 40 categories, 8 clusters.
    scale = 0.08
    #: The default threshold of 0.92 is never crossed at this scale, so that
    #: MaxFair_Reassign would move nothing; 0.999 makes it work.
    fairness_threshold = 0.999

    def setup(self, seed: int) -> None:
        """Set-up is what a pipeline needs before it can start: an
        interpreter that has imported the model and the algorithms."""
        self.seed = seed
        subprocess.run(
            [sys.executable, "-c", "import repro.core, repro.model"],
            check=True,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )

    def teardown(self) -> None:
        pass

    def pipeline(self, seed: int):
        instance = _workload.zipf_category_scenario(scale=self.scale, seed=seed)
        stats = _popularity.build_category_stats(instance)
        assignment = _maxfair.maxfair(instance, stats=stats)
        _replication.plan_replication(
            instance, assignment, n_reps=2, hot_mass=0.35
        )
        placed = _maxfair.achieved_fairness(instance, assignment, stats=stats)
        _workload.add_hot_documents(instance, 0.05, 0.30, seed=seed + 1)
        started = perf_counter()
        stats = _popularity.build_category_stats(instance)
        result = _reassign.maxfair_reassign(
            instance, assignment, stats=stats,
            fairness_threshold=self.fairness_threshold,
        )
        return placed, result, perf_counter() - started

    def measure(self, seconds: float) -> Measured:
        results: list = []

        def segment(seed):
            results.append(self.pipeline(seed))
            return 1, 0

        measured = run_segments(
            seconds, lambda index: self.seed * 1009 + index, segment,
            self.tracer,
        )
        timed = results[1:]
        window = timed[:EXACT_SEGMENTS]
        measured.op_latency_ms = float(np.median([
            rebalance_s * segment.speed
            for (_, _, rebalance_s), segment in zip(timed, measured.segments)
        ])) * 1000.0
        measured.load_fairness = float(
            np.mean([result.final_fairness for _, result, _ in window])
        )
        measured.counts = {
            "core.reassign.moves": float(
                np.mean([result.n_moves for _, result, _ in window])
            ),
        }
        measured.exact = dict(
            measured.counts, load_fairness=measured.load_fairness
        )
        for placed, result, _ in results:
            if placed < 0.95:
                measured.problems.append(f"fairness after MaxFair {placed:.4f}")
            if result.final_fairness < result.initial_fairness:
                measured.problems.append(
                    "MaxFair_Reassign lowered fairness "
                    f"{result.initial_fairness:.4f} -> {result.final_fairness:.4f}"
                )
        return measured
