"""Deterministic execution of a fault schedule against a live overlay.

:func:`run_schedule` builds a fresh world from the schedule's seed,
registers the :class:`~repro.chaos.invariants.InvariantChecker` as a
simulation quiescence hook (so structural invariants are asserted after
*every* drained step, including the intermediate drains inside join,
leave, and adaptation protocols), applies the schedule entry by entry,
and returns a :class:`ChaosReport`.

Schedule entries resolve rank parameters against the *current* live-node
population ("crash the k-th live node"), so the same schedule replays
identically and shrunk schedules remain well-formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.chaos.invariants import InvariantChecker, Violation
from repro.chaos.scenario import Schedule, ScenarioConfig
from repro.content import ContentConfig
from repro.core.replication import build_world
from repro.durability import DurabilityConfig
from repro.model.system import SystemConfig
from repro.model.workload import Query, QueryWorkload, make_query_workload
from repro.overlay.adaptation import broadcast_notice, plan_category_move
from repro.overlay.metadata import DCRTEntry
from repro.overlay.peer import DocInfo, MisbehaviorConfig
from repro.overlay.replication_manager import ReplicationConfig
from repro.overlay.service import ServiceConfig
from repro.overlay.system import P2PSystem, P2PSystemConfig
from repro.reliability import RELIABLE_KINDS, ReliabilityConfig

__all__ = ["ChaosReport", "ChaosRunner", "run_schedule"]

#: settle-round cap for the ``converge`` entry: gossip rounds to try
#: before declaring the network unable to converge.
MAX_SETTLE_ROUNDS = 30


@dataclass(slots=True)
class ChaosReport:
    """What one schedule execution observed."""

    seed: int
    n_entries: int
    entries_applied: int = 0
    entries_skipped: int = 0
    outcomes_total: int = 0
    settle_rounds: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violated_invariants(self) -> set[str]:
        return {violation.invariant for violation in self.violations}

    @property
    def invariant_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
        return counts

    def summary(self) -> str:
        if self.ok:
            return (
                f"seed {self.seed}: ok ({self.entries_applied} entries, "
                f"{self.outcomes_total} queries)"
            )
        parts = ", ".join(
            f"{name} x{count}" for name, count in sorted(self.invariant_counts.items())
        )
        return f"seed {self.seed}: FAIL ({parts})"


class ChaosRunner:
    """One schedule, one world, one checker."""

    def __init__(
        self,
        schedule: Schedule,
        config: ScenarioConfig | None = None,
        check_invariants: bool = True,
    ) -> None:
        self.schedule = schedule
        self.config = config if config is not None else ScenarioConfig()
        self.check_invariants = check_invariants
        config = self.config

        self.instance, assignment, plan = build_world(
            SystemConfig(
                n_docs=config.n_docs,
                n_nodes=config.n_nodes,
                n_categories=config.n_categories,
                n_clusters=config.n_clusters,
                doc_size_bytes=config.doc_size_bytes,
                seed=schedule.seed,
            ),
            n_reps=config.n_reps,
        )
        features = config.features
        if "overload" in features:
            # Overload worlds pair the per-peer service model with the
            # client-side protections the flash_crowd action stresses.
            reliability = ReliabilityConfig(
                enabled=config.reliability,
                retry_budget_ratio=0.5,
                breaker_threshold=3,
                adaptive_timeout=True,
            )
            service = ServiceConfig(
                enabled=True,
                base_service_time=0.02,
                queue_capacity=8,
                policy="redirect",
            )
        else:
            reliability = ReliabilityConfig(enabled=config.reliability)
            service = ServiceConfig()
        self.system = P2PSystem(
            self.instance,
            assignment,
            plan=plan,
            config=P2PSystemConfig(
                seed=schedule.seed,
                reliability=reliability,
                service=service,
                replication=ReplicationConfig(enabled="adaptive" in features),
                content=ContentConfig(
                    enabled="content" in features,
                    replication_floor=config.content_floor,
                ),
                durability=DurabilityConfig(enabled="recovery" in features),
                cache_capacity=8 if "adaptive" in features else 0,
            ),
        )
        # Random loss needs a generator; give the network its own named
        # stream so loss draws never perturb protocol randomness.
        self.system.network.rng = self.system.rngs.stream("chaos.loss")
        self.checker = InvariantChecker(self.system)
        self.report = ChaosReport(seed=schedule.seed, n_entries=len(schedule))
        self._next_doc_id = max(self.instance.documents) + 1
        self._next_node_id = max(self.system.all_node_ids()) + 1
        #: lazily-built document-draw law for the scenario actions; a
        #: ``skew_flip`` entry reweights it in place.
        self._scenario_doc_ids: list[int] | None = None
        self._scenario_doc_weights: np.ndarray | None = None
        self._unregister = None
        if check_invariants:
            self._unregister = self.system.sim.on_quiescence(
                self.checker.check_structural
            )

    # ------------------------------------------------------------------
    def run(self) -> ChaosReport:
        obs.counter("chaos.runs").inc()
        try:
            for entry in self.schedule.entries:
                self.checker.step = entry.step
                obs.counter("chaos.entries").inc()
                if self._apply(entry):
                    self.report.entries_applied += 1
                else:
                    self.report.entries_skipped += 1
                # Always return to quiescence between entries; a no-op
                # when the action already drained the queue.
                self.system.sim.run()
                # One control round per entry for whatever the world runs:
                # a background fetch keeps the multi-source scheduler (and
                # its hash verification against whatever the entry
                # corrupted) under constant exercise, then every registered
                # subsystem reacts — ownership is fenced, placement follows
                # the demand the entry generated, healing re-replicates
                # what churn pushed below the floor — and the resulting
                # transfers land before the next entry's invariant pass.
                self._background_fetch()
                self.system.run_control_round()
        finally:
            if self._unregister is not None:
                self._unregister()
        self.report.violations = list(self.checker.violations)
        return self.report

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def _alive_ids(self) -> list[int]:
        return [peer.node_id for peer in self.system.alive_peers()]

    def _fresh_doc(self, category_id: int) -> DocInfo:
        doc_id = self._next_doc_id
        self._next_doc_id += 1
        info = DocInfo(
            doc_id=doc_id,
            categories=(category_id % self.config.n_categories,),
            size_bytes=self.config.doc_size_bytes,
        )
        self.checker.note_published(doc_id)
        return info

    def _check(self, name: str, *args, **kwargs) -> None:
        """An event-driven invariant's trigger fired."""
        if self.check_invariants:
            self.checker.check(name, *args, **kwargs)

    def _workload(self, workload: QueryWorkload, **kwargs) -> bool:
        """Run a query workload to quiescence: the ``workload`` event."""
        outcomes = self.system.run_workload(workload, **kwargs)
        self.report.outcomes_total += len(outcomes)
        self._check("query-termination", outcomes)
        return True

    def _apply(self, entry) -> bool:
        handler = getattr(self, f"_do_{entry.action}", None)
        if handler is None:
            raise ValueError(f"unknown chaos action {entry.action!r}")
        return handler(entry.step, **entry.params)

    def _do_query_burst(self, step: int, n: int, workload_seed: int) -> bool:
        workload = make_query_workload(self.instance, n, seed=workload_seed)
        return self._workload(workload)

    def _do_flash_crowd(
        self, step: int, category: int, n: int, workload_seed: int
    ) -> bool:
        # A synchronized burst aimed at one category's documents, issued
        # nearly back-to-back so service queues actually fill.  Unlike
        # query_burst, requesters and targets are drawn from the hot
        # category only — the regime admission control exists for.
        alive = self._alive_ids()
        if not alive:
            return False
        category_id = category % self.config.n_categories
        doc_ids = sorted(
            doc_id
            for doc_id, doc in self.instance.documents.items()
            if category_id in doc.categories
        )
        rng = np.random.default_rng(workload_seed)
        queries = [
            Query(
                query_id=index,
                requester_id=alive[int(rng.integers(0, len(alive)))],
                target_doc_id=(
                    doc_ids[int(rng.integers(0, len(doc_ids)))] if doc_ids else -1
                ),
                category_ids=(category_id,),
                m=1,
            )
            for index in range(n)
        ]
        return self._workload(
            QueryWorkload(queries=queries),
            query_interval=0.001,
            doc_targeted=bool(doc_ids),
        )

    def _do_gossip(self, step: int, rounds: int) -> bool:
        self.system.run_round("gossip", rounds)
        return True

    def _do_publish(self, step: int, rank: int, category: int, n_docs: int) -> bool:
        alive = self._alive_ids()
        if not alive:
            return False
        publisher = self.system.peer(alive[rank % len(alive)])
        for _ in range(n_docs):
            publisher.membership.publish_document(self._fresh_doc(category))
        self.system.sim.run()
        return True

    def _do_join(self, step: int, capacity: int, category: int, n_docs: int) -> bool:
        if not self._alive_ids():
            return False
        node_id = self._next_node_id
        self._next_node_id += 1
        docs = [self._fresh_doc(category) for _ in range(n_docs)]
        self.system.join_node(node_id, float(capacity), doc_infos=docs)
        return True

    def _do_leave(self, step: int, rank: int) -> bool:
        alive = self._alive_ids()
        if len(alive) <= self.config.min_alive:
            return False
        self.system.leave_node(alive[rank % len(alive)])
        return True

    def _do_crash(self, step: int, rank: int) -> bool:
        alive = self._alive_ids()
        if len(alive) <= self.config.min_alive:
            return False
        self.system.crash_node(alive[rank % len(alive)])
        return True

    def _do_loss_ramp(self, step: int, target: float, steps: int) -> bool:
        self.system.network.schedule_loss_ramp(target, duration=0.5, steps=steps)
        self.system.sim.run()
        return True

    def _do_partition(self, step: int, fraction: float, salt: int) -> bool:
        alive = sorted(self._alive_ids())
        if len(alive) < 4:
            return False
        rotation = salt % len(alive)
        rotated = alive[rotation:] + alive[:rotation]
        split = max(1, int(len(rotated) * fraction))
        self.system.network.schedule_partition(
            0.0, [rotated[:split], rotated[split:]]
        )
        self.system.sim.run()
        return True

    def _do_heal(self, step: int) -> bool:
        self.system.network.schedule_heal(0.0)
        self.system.network.clear_kind_drop_probabilities()
        self.system.sim.run()
        return True

    def _do_ack_loss(self, step: int, probability: float) -> bool:
        # Every reliable payload arrives; its ack may not.  Senders then
        # retransmit already-applied deliveries, exercising the receiver's
        # duplicate-suppression window end to end.
        self.system.network.set_kind_drop_probability("ack", probability)
        return True

    def _do_retry_storm(self, step: int, probability: float) -> bool:
        # Drop the reliable request kinds themselves, forcing backoff
        # chains (and give-ups feeding the failure detector) at scale.
        for kind in sorted(RELIABLE_KINDS):
            self.system.network.set_kind_drop_probability(kind, probability)
        return True

    def _do_force_move(self, step: int, category: int, target_rank: int) -> bool:
        system = self.system
        category_id = category % self.config.n_categories
        source = int(system.assignment.category_to_cluster[category_id])
        choices = [
            cluster_id
            for cluster_id in range(system.assignment.n_clusters)
            if cluster_id != source and system.peers_in_cluster(cluster_id)
        ]
        if not choices:
            return False
        target = choices[target_rank % len(choices)]
        notice = plan_category_move(system, category_id, source, target)
        source_members = [p.node_id for p in system.peers_in_cluster(source)]
        coordinator_pool = source_members or self._alive_ids()
        if not coordinator_pool:
            return False
        broadcast_notice(system, notice, min(coordinator_pool))
        system.sim.run()
        return True

    # -- scenario group ---------------------------------------------------
    def _scenario_weights(self) -> tuple[list[int], np.ndarray]:
        """The (doc ids, draw probabilities) law the scenario bursts use."""
        if self._scenario_doc_weights is None:
            doc_ids = sorted(self.instance.documents)
            popularity = np.array(
                [self.instance.documents[d].popularity for d in doc_ids],
                dtype=float,
            )
            self._scenario_doc_ids = doc_ids
            self._scenario_doc_weights = popularity / popularity.sum()
        return self._scenario_doc_ids, self._scenario_doc_weights

    def _do_diurnal_burst(
        self,
        step: int,
        n: int,
        phase: float,
        amplitude: float,
        workload_seed: int,
    ) -> bool:
        # One sample point of the scenario engine's diurnal rate curve:
        # the burst size is n scaled by ``1 + amplitude * sin(2π·phase)``.
        alive = self._alive_ids()
        if not alive:
            return False
        factor = 1.0 + amplitude * math.sin(2.0 * math.pi * phase)
        count = max(1, int(round(n * factor)))
        doc_ids, weights = self._scenario_weights()
        rng = np.random.default_rng(workload_seed)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        choices = cdf.searchsorted(rng.random(count), side="right")
        requesters = rng.integers(0, len(alive), size=count)
        queries = []
        for index in range(count):
            doc = self.instance.documents[doc_ids[int(choices[index])]]
            queries.append(
                Query(
                    query_id=index,
                    requester_id=alive[int(requesters[index])],
                    target_doc_id=doc.doc_id,
                    category_ids=doc.categories,
                    m=1,
                )
            )
        return self._workload(QueryWorkload(queries=queries))

    def _do_skew_flip(
        self, step: int, mass: float, n_hot: int, flip_seed: int
    ) -> bool:
        # Breaking news: future scenario bursts draw from the convex
        # mixture ``(1 - mass) * current + mass * uniform(hot set)``.
        doc_ids, weights = self._scenario_weights()
        n_hot = min(n_hot, len(doc_ids))
        if n_hot < 1:
            return False
        hot = np.random.default_rng(flip_seed).choice(
            len(doc_ids), size=n_hot, replace=False
        )
        boost = np.zeros(len(doc_ids))
        boost[hot] = 1.0 / n_hot
        self._scenario_doc_weights = (1.0 - mass) * weights + mass * boost
        return True

    def _do_free_rider_join(self, step: int, capacity: int) -> bool:
        if not self._alive_ids():
            return False
        node_id = self._next_node_id
        self._next_node_id += 1
        self.system.join_node(node_id, float(capacity), doc_infos=[])
        return True

    def _do_misbehave(self, step: int, rank: int, mode: str) -> bool:
        alive = self._alive_ids()
        # Keep enough honest peers to stay useful (and shrinkable).
        if len(alive) <= self.config.min_alive:
            return False
        node_id = alive[rank % len(alive)]
        if mode == "stale_gossip":
            config = MisbehaviorConfig(stale_gossip=True)
        else:
            # Rejectable bogus mode only (empty doc_infos): requesters
            # catch every fabricated answer, so fuzz runs stay clean and
            # the response-integrity audit has real work to do.
            config = MisbehaviorConfig(bogus_responses=True)
        self.system.set_misbehavior(node_id, config)
        return True

    def _do_regional_partition(self, step: int, region: int) -> bool:
        # Correlated outage: one whole cluster loses contact with the
        # rest of the overlay (vs. the random split of ``partition``).
        cluster_id = region % self.config.n_clusters
        members = sorted(
            peer.node_id for peer in self.system.peers_in_cluster(cluster_id)
        )
        others = sorted(set(self._alive_ids()) - set(members))
        if not members or not others:
            return False
        self.system.network.schedule_partition(0.0, [members, others])
        self.system.sim.run()
        return True

    # -- content group ----------------------------------------------------
    def _background_fetch(self) -> None:
        """One fetch by a random live peer (content worlds only)."""
        manager = self.system.content
        if manager is None:
            return
        rng = self.system.rngs.stream("content.fetch")
        alive = self._alive_ids()
        doc_ids = sorted(manager.manifests)
        if alive and doc_ids:
            requester = alive[int(rng.integers(0, len(alive)))]
            doc_id = doc_ids[int(rng.integers(0, len(doc_ids)))]
            manager.fetch(requester, doc_id)
            self.system.sim.run()

    def _do_corrupt_chunk(
        self, step: int, rank: int, doc_rank: int, chunk_rank: int
    ) -> bool:
        # Flip one chunk's stored bytes on one live replica: the next
        # fetch routed there must catch the hash mismatch, fail over,
        # and read-repair the corrupt copy.
        manager = self.system.content
        if manager is None:
            return False
        candidates = [
            (doc_id, holders)
            for doc_id in sorted(manager.manifests)
            if (holders := manager.live_holders(doc_id))
        ]
        if not candidates:
            return False
        doc_id, holders = candidates[doc_rank % len(candidates)]
        holder = holders[rank % len(holders)]
        state = self.system.peer(holder).content_state
        if state is None:
            return False
        index = chunk_rank % manager.manifests[doc_id].n_chunks
        return state.mark_corrupt(doc_id, index)

    def _do_graceful_shutdown(self, step: int, rank: int) -> bool:
        alive = self._alive_ids()
        if len(alive) <= self.config.min_alive:
            return False
        node_id = alive[rank % len(alive)]
        peer = self.system.peer(node_id)
        docs_before = sorted(peer.docs) if peer is not None else []
        ok = self.system.shutdown_node(node_id)
        if ok:
            self._check("no-sole-holder-loss", node_id, docs_before)
        return ok

    # -- recovery group ---------------------------------------------------
    def _do_power_loss(self, step: int, rank: int) -> bool:
        # A full amnesia crash/recover cycle: wipe the victim's volatile
        # memory (its disk — journal, partial chunks, corruption marks —
        # survives), replay the journal on recovery, give the control
        # plane one round (reconcile ownership, then heal), then demand
        # full recovery.
        alive = self._alive_ids()
        if len(alive) <= self.config.min_alive:
            return False
        node_id = alive[rank % len(alive)]
        system = self.system
        system.power_loss(node_id)
        system.sim.run()
        system.recover_node(node_id)
        system.run_control_round()
        self._check("recovery-convergence", node_id=node_id)
        return True

    def _do_split_brain_heal(
        self, step: int, category: int, fraction: float, salt: int
    ) -> bool:
        # Engineer a split brain: partition the network, let the minority
        # side adopt a conflicting ownership belief for one category (a
        # bumped move counter, as a stale owner rebalancing while
        # isolated would gossip), then heal and reconcile — every live
        # peer must converge back to the fenced authoritative owner.
        system = self.system
        alive = sorted(self._alive_ids())
        if len(alive) < 4 or system.assignment.n_clusters < 2:
            return False
        category_id = category % self.config.n_categories
        rotation = salt % len(alive)
        rotated = alive[rotation:] + alive[:rotation]
        split = max(1, int(len(rotated) * fraction))
        minority, majority = rotated[:split], rotated[split:]
        system.network.schedule_partition(0.0, [minority, majority])
        system.sim.run()
        target = int(system.assignment.category_to_cluster[category_id])
        stale_cluster = (target + 1) % system.assignment.n_clusters
        counter = int(system.assignment.move_counters[category_id]) + 1
        for node_id in minority:
            peer = system.peer(node_id)
            if peer is not None:
                peer.dcrt.merge(
                    category_id, DCRTEntry(stale_cluster, counter)
                )
        system.network.schedule_heal(0.0)
        system.sim.run()
        # Let the divergent beliefs collide via gossip before the
        # reconciliation passes fence them back to a single owner.
        # Reconciliation is anti-entropy: one round's notices can be
        # lost for good under a standing retry_storm/loss_ramp drop, so
        # drive rounds until one finds nothing divergent (each round
        # re-detects the stragglers and re-sends under a fresh epoch).
        system.run_round("gossip")
        for _ in range(8):
            outcome = system.run_round("reconciliation")
            if not outcome or not outcome["divergent"]:
                break
        self._check("recovery-convergence", category_id=category_id)
        return True

    def _do_adapt(self, step: int) -> bool:
        outcome = self.system.run_adaptation(round_id=step)
        self._check("fairness-bound", outcome)
        return True

    def _do_converge(self, step: int) -> bool:
        # Fence any ownership divergence first so the gossip settle
        # loop converges toward the reconciled owner, not away.
        self.system.run_round("reconciliation")
        rounds = 0
        while rounds < MAX_SETTLE_ROUNDS and not self.checker.probe_convergence():
            self.system.run_round("gossip")
            rounds += 1
        self.report.settle_rounds += rounds
        self._check("gossip-convergence")
        # Heal until a scan starts no new fetch (the healer's per-round
        # budget can leave a backlog), then demand every surviving
        # document meet the availability floor.
        for _ in range(MAX_SETTLE_ROUNDS):
            report = self.system.run_round("healing")
            if not report or not report["fetches"]:
                break
        if self.system.content is not None:
            self._check("chunk-availability")
        return True


def run_schedule(
    schedule: Schedule,
    config: ScenarioConfig | None = None,
    check_invariants: bool = True,
) -> ChaosReport:
    """Build a world from the schedule's seed and execute it."""
    return ChaosRunner(
        schedule, config=config, check_invariants=check_invariants
    ).run()
