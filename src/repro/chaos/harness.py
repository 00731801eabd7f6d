"""Deterministic execution of a fault schedule against a live overlay.

:class:`Interpreter` — one ``_do_<action>`` handler per
:data:`~repro.chaos.scenario.ACTIONS` entry — applies schedule entries,
fuzzed or compiled from a scenario spec, to an already-built world;
``Interpreter.play`` issues a compiled schedule's queries at their times.
:func:`run_schedule` builds a fresh world from the schedule's seed,
registers the :class:`~repro.chaos.invariants.InvariantChecker` as a
simulation quiescence hook (structural invariants are asserted after
*every* drained step), applies the schedule and returns a
:class:`ChaosReport`.

Schedule entries resolve rank parameters against the *current* live-node
population ("crash the k-th live node"), so the same schedule replays
identically and shrunk schedules remain well-formed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from repro import obs
from repro.chaos.invariants import InvariantChecker, Violation
from repro.chaos.scenario import Schedule, ScheduleEntry, ScenarioConfig, draw_requests
from repro.content import ContentConfig
from repro.core.replication import build_world
from repro.durability import DurabilityConfig
from repro.model.system import SystemConfig
from repro.model.workload import (
    Query,
    QueryWorkload,
    diurnal_factor,
    make_query_workload,
)
from repro.model.zipf import TimeVaryingZipfSampler
from repro.overlay import misbehavior
from repro.overlay.adaptation import broadcast_notice, plan_category_move
from repro.overlay.metadata import DCRTEntry
from repro.overlay.peer import DocInfo
from repro.overlay.replication_manager import ReplicationConfig
from repro.overlay.service import ServiceConfig
from repro.overlay.system import P2PSystem, P2PSystemConfig
from repro.reliability import ReliabilityConfig

__all__ = ["ChaosReport", "ChaosRunner", "Interpreter", "run_schedule"]

#: settle-round cap for the ``converge`` entry: gossip rounds to try
#: before declaring the network unable to converge.
MAX_SETTLE_ROUNDS = 30
#: the request kinds ``retry_storm`` drops: the channel's, and the transfer
#: pair, whose recoverers (the group deadline, the replica loop) sit above it.
STORM_KINDS = (
    "join_reply", "join_request", "publish_reply", "publish_request",
    "reassign_notice", "transfer_data", "transfer_request",
)


@dataclass(slots=True)
class ChaosReport:
    """What one schedule execution observed."""

    seed: int
    entries_applied: int = 0
    outcomes_total: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violated_invariants(self) -> set[str]:
        return {violation.invariant for violation in self.violations}

    @property
    def invariant_counts(self) -> dict[str, int]:
        return dict(Counter(violation.invariant for violation in self.violations))

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
    """One schedule, one world, one checker.  The world is built from
    ``config`` and the schedule's seed unless ``world`` hands over one
    already built, as ``(instance, assignment, plan)``."""

    def __init__(
        self,
        schedule: Schedule,
        config: ScenarioConfig | None = None,
        check_invariants: bool = True,
        world: tuple | None = None,
    ) -> None:
        self.schedule = schedule
        self.config = config if config is not None else ScenarioConfig()
        self.check_invariants = check_invariants
        config = self.config

        if world is None:
            world = build_world(
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
        self.instance, assignment, plan = world
        features = config.features
        if "overload" in features:
            # Overload worlds pair the per-peer service model with the
            # client-side protections the flash_crowd action stresses.
            reliability = ReliabilityConfig(
                enabled=True,
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
            reliability = ReliabilityConfig(enabled=True)
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
        self.interpreter = Interpreter(
            self.system, config, self.checker, check_invariants
        )
        self.report = ChaosReport(seed=schedule.seed)
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
                if self.interpreter.apply(entry):
                    self.report.entries_applied += 1
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
        self.report.outcomes_total = self.interpreter.outcomes_total
        self.report.violations = list(self.checker.violations)
        return self.report

    def _background_fetch(self) -> None:
        """One fetch by a random live peer (content worlds only)."""
        manager = self.system.content
        if manager is None:
            return
        rng = self.system.rngs.stream("content.fetch")
        alive = self.interpreter.alive_ids()
        doc_ids = sorted(manager.manifests)
        if alive and doc_ids:
            requester = alive[int(rng.integers(0, len(alive)))]
            doc_id = doc_ids[int(rng.integers(0, len(doc_ids)))]
            manager.fetch(requester, doc_id)
            self.system.sim.run()


class Interpreter:
    """Applies schedule entries to an already-built world.

    ``config`` supplies the world facts the handlers read (category and
    cluster counts, document size, the ``min_alive`` floor); issued
    queries are counted in ``outcomes_total``.
    """

    def __init__(
        self,
        system: P2PSystem,
        config: ScenarioConfig,
        checker: InvariantChecker,
        check_invariants: bool = True,
    ) -> None:
        self.system = system
        self.instance = system.instance
        self.config = config
        self.checker = checker
        self.check_invariants = check_invariants
        self.outcomes_total = 0
        self._next_doc_id = max(self.instance.documents) + 1
        self._next_node_id = max(system.all_node_ids()) + 1
        #: the scenario bursts' (doc ids, document law), built on first
        #: use from ``_popularity``; each ``skew_flip`` adds one flip.
        self._doc_law: tuple[list[int], TimeVaryingZipfSampler] | None = None
        self._popularity: np.ndarray | None = None

    def apply(self, entry: ScheduleEntry) -> bool:
        """Apply one entry; False when the world could not take it."""
        handler = getattr(self, f"_do_{entry.action}", None)
        if handler is None:
            raise ValueError(f"unknown chaos action {entry.action!r}")
        return handler(entry.step, **entry.params)

    def alive_ids(self) -> list[int]:
        return [peer.node_id for peer in self.system.alive_peers()]

    def _victim(self, rank: int) -> int | None:
        """The ``rank``-th live node; None at the ``min_alive`` floor."""
        alive = self.alive_ids()
        if len(alive) <= self.config.min_alive:
            return None
        return alive[rank % len(alive)]

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

    def play(self, entries, start: float) -> list:
        """Apply ``entries`` in order; each run of consecutive ``query``
        entries goes out as one workload, every query at its time ``t``
        (the first run timed from ``start``, later runs from their own
        first query).  Returns the queries' outcomes, unchecked."""
        outcomes = []
        origin = start
        for is_query, run in groupby(entries, lambda e: e.action == "query"):
            if not is_query:
                for entry in run:
                    self.apply(entry)
                continue
            run = list(run)
            origin = run[0].params["t"] if origin is None else origin
            outcomes += self.system.run_workload(
                QueryWorkload([self._query(e.step, **e.params) for e in run]),
                at_times=[e.params["t"] - origin for e in run],
            )
            origin = None
        self.outcomes_total += len(outcomes)
        return outcomes

    def _query(
        self, step: int, requester: int, doc: int, m: int, t: float = 0.0
    ) -> Query:
        """The query a ``query`` entry names (``t`` says when, not what)."""
        categories = self.instance.documents[doc].categories
        return Query(step, requester, doc, categories, m)

    def _workload(self, workload: QueryWorkload, **kwargs) -> bool:
        """Run a query workload to quiescence: the ``workload`` event."""
        outcomes = self.system.run_workload(workload, **kwargs)
        self.outcomes_total += len(outcomes)
        self._check("query-termination", outcomes)
        return True

    def _do_query(
        self, step: int, t: float, requester: int, doc: int, m: int
    ) -> bool:
        # One compiled scenario query on its own, issued now.
        return self._workload(QueryWorkload([self._query(step, requester, doc, m)]))

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
        alive = self.alive_ids()
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
        alive = self.alive_ids()
        if not alive:
            return False
        publisher = self.system.peer(alive[rank % len(alive)])
        for _ in range(n_docs):
            publisher.membership.publish_document(self._fresh_doc(category))
        self.system.sim.run()
        return True

    def _do_join(self, step: int, capacity: int, category: int, n_docs: int) -> bool:
        if not self.alive_ids():
            return False
        node_id = self._next_node_id
        self._next_node_id += 1
        docs = [self._fresh_doc(category) for _ in range(n_docs)]
        self.system.join_node(node_id, float(capacity), doc_infos=docs)
        return True

    def _do_leave(self, step: int, rank: int) -> bool:
        node_id = self._victim(rank)
        if node_id is not None:
            self.system.leave_node(node_id)
        return node_id is not None

    def _do_crash(self, step: int, rank: int) -> bool:
        node_id = self._victim(rank)
        if node_id is not None:
            self.system.crash_node(node_id)
        return node_id is not None

    def _do_loss_ramp(self, step: int, target: float, steps: int) -> bool:
        self.system.network.schedule_loss_ramp(target, duration=0.5, steps=steps)
        self.system.sim.run()
        return True

    def _salted_split(self, fraction: float, salt: int) -> list[list[int]] | None:
        """The sorted live nodes, rotated by ``salt``, cut at ``fraction``."""
        alive = sorted(self.alive_ids())
        if len(alive) < 4:
            return None
        rotated = alive[salt % len(alive):] + alive[: salt % len(alive)]
        split = max(1, int(len(rotated) * fraction))
        return [rotated[:split], rotated[split:]]

    def _do_partition(self, step: int, fraction: float, salt: int) -> bool:
        groups = self._salted_split(fraction, salt)
        if groups is None:
            return False
        self.system.network.schedule_partition(0.0, groups)
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
        # Drop the request kinds themselves, forcing backoff chains (and
        # give-ups feeding the failure detector) and protocol deadlines.
        for kind in STORM_KINDS:
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
        coordinator_pool = source_members or self.alive_ids()
        if not coordinator_pool:
            return False
        broadcast_notice(system, notice, min(coordinator_pool))
        system.sim.run()
        return True

    # -- scenario group ---------------------------------------------------
    def _scenario_law(self) -> tuple[list[int], TimeVaryingZipfSampler]:
        """The (doc ids, document law) the scenario bursts draw from."""
        if self._doc_law is None:
            doc_ids = sorted(self.instance.documents)
            self._popularity = np.array(
                [self.instance.documents[d].popularity for d in doc_ids],
                dtype=float,
            )
            self._doc_law = doc_ids, TimeVaryingZipfSampler(self._popularity)
        return self._doc_law

    def _do_diurnal_burst(
        self,
        step: int,
        n: int,
        phase: float,
        amplitude: float,
        workload_seed: int,
    ) -> bool:
        # One sample point of the scenario engine's diurnal rate curve.
        alive = self.alive_ids()
        if not alive:
            return False
        count = max(1, int(round(n * diurnal_factor(amplitude, phase))))
        doc_ids, law = self._scenario_law()
        rng = np.random.default_rng(workload_seed)
        requests = draw_requests(rng, law, 0.0, count, doc_ids, alive)
        return self._workload(QueryWorkload([
            self._query(index, requester, doc, 1)
            for index, (requester, doc) in enumerate(requests)
        ]))

    def _do_skew_flip(
        self, step: int, mass: float, n_hot: int, flip_seed: int
    ) -> bool:
        # Breaking news: future scenario bursts draw from the law plus one
        # flip, ``(1 - mass) * current + mass * uniform(hot set)``.  Bursts
        # sample at t = 0, where every flip so far applies, in order.
        doc_ids, law = self._scenario_law()
        n_hot = min(n_hot, len(doc_ids))
        if n_hot < 1:
            return False
        hot = np.random.default_rng(flip_seed).choice(
            len(doc_ids), size=n_hot, replace=False
        )
        flips = law.flips + ((0.0, mass, tuple(int(i) for i in hot)),)
        self._doc_law = doc_ids, TimeVaryingZipfSampler(
            self._popularity, flips=flips
        )
        return True

    def _do_free_rider_join(self, step: int, capacity: int) -> bool:
        return self._do_join(step, capacity, category=0, n_docs=0)

    def _do_misbehave(self, step: int, rank: int, mode: str) -> bool:
        # Keep enough honest peers to stay useful (and shrinkable).
        node_id = self._victim(rank)
        if node_id is None:
            return False
        misbehavior.arm(self.system, node_id, mode)
        return True

    def _do_regional_partition(self, step: int, region: int) -> bool:
        # Correlated outage: one whole cluster loses contact with the
        # rest of the overlay (vs. the random split of ``partition``).
        cluster_id = region % self.config.n_clusters
        members = sorted(
            peer.node_id for peer in self.system.peers_in_cluster(cluster_id)
        )
        others = sorted(set(self.alive_ids()) - set(members))
        if not members or not others:
            return False
        self.system.network.schedule_partition(0.0, [members, others])
        self.system.sim.run()
        return True

    # -- content group ----------------------------------------------------
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
        node_id = self._victim(rank)
        if node_id is None:
            return False
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
        node_id = self._victim(rank)
        if node_id is None:
            return False
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
        groups = self._salted_split(fraction, salt)
        if groups is None or system.assignment.n_clusters < 2:
            return False
        category_id = category % self.config.n_categories
        system.network.schedule_partition(0.0, groups)
        system.sim.run()
        target = int(system.assignment.category_to_cluster[category_id])
        stale_cluster = (target + 1) % system.assignment.n_clusters
        counter = int(system.assignment.move_counters[category_id]) + 1
        for node_id in groups[0]:
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
        for _ in range(MAX_SETTLE_ROUNDS):
            if self.checker.probe_convergence():
                break
            self.system.run_round("gossip")
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
