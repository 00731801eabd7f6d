"""Misbehaving peers: bogus responses and stale gossip stay bounded."""

import pytest

from repro.chaos.invariants import InvariantChecker
from repro.core.maxfair import maxfair
from repro.core.popularity import build_category_stats
from repro.core.replication import plan_replication
from repro.model.system import SystemConfig, build_system
from repro.model.workload import make_query_workload
from repro.overlay.peer import MisbehaviorConfig
from repro.overlay.system import P2PSystem, P2PSystemConfig

WORLD = SystemConfig(
    seed=29,
    n_docs=120,
    n_nodes=12,
    n_categories=8,
    n_clusters=3,
    doc_size_bytes=65_536,
)


def build():
    instance = build_system(WORLD)
    stats = build_category_stats(instance)
    assignment = maxfair(instance, stats=stats)
    plan = plan_replication(instance, assignment, n_reps=2, hot_mass=0.35)
    system = P2PSystem(
        instance, assignment, plan=plan, config=P2PSystemConfig(seed=29)
    )
    return instance, system


class TestBogusResponses:
    def test_rejectable_bogus_mode_is_caught_by_requesters(self):
        from repro import obs

        sent = obs.counter("overlay.bogus_responses_sent")
        rejected = obs.counter("overlay.bogus_responses_rejected")
        sent0, rejected0 = sent.value, rejected.value
        instance, system = build()
        bogus_id = sorted(p.node_id for p in system.alive_peers())[0]
        system.set_misbehavior(bogus_id, MisbehaviorConfig(bogus_responses=True))
        workload = make_query_workload(instance, 120, seed=3)
        system.run_workload(workload)
        # Loss-free world: every fabricated answer reaches its requester.
        assert sent.value - sent0 > 0, "no query reached the bogus responder"
        assert rejected.value - rejected0 == sent.value - sent0
        # Every rejection was silent at the requester: no fabricated
        # document id ever entered an accepted outcome.
        assert not system.ledger.integrity_violations

    def test_rejected_queries_fail_over_to_honest_holders(self):
        instance, system = build()
        bogus_id = sorted(p.node_id for p in system.alive_peers())[0]
        system.set_misbehavior(bogus_id, MisbehaviorConfig(bogus_responses=True))
        workload = make_query_workload(instance, 120, seed=3)
        outcomes = system.run_workload(workload)
        succeeded = sum(1 for o in outcomes if o.succeeded)
        # One bogus node out of twelve must not collapse the workload:
        # rejected responses leave the query pending, so the failover
        # deadline retries through honest replicas.
        assert succeeded / len(outcomes) > 0.8

    def test_invariant_passes_when_requesters_reject(self):
        instance, system = build()
        checker = InvariantChecker(system)
        unregister = system.sim.on_quiescence(checker.check_structural)
        try:
            bogus_id = sorted(p.node_id for p in system.alive_peers())[0]
            system.set_misbehavior(
                bogus_id, MisbehaviorConfig(bogus_responses=True)
            )
            workload = make_query_workload(instance, 80, seed=5)
            system.run_workload(workload)
        finally:
            unregister()
        assert "response-integrity" not in checker.violated_invariants

    def test_forged_infos_trip_the_integrity_invariant(self):
        # forge_infos makes the fabricated response pass the requester's
        # local length check — the system-level audit must catch it.
        instance, system = build()
        checker = InvariantChecker(system)
        unregister = system.sim.on_quiescence(checker.check_structural)
        try:
            bogus_id = sorted(p.node_id for p in system.alive_peers())[0]
            system.set_misbehavior(
                bogus_id,
                MisbehaviorConfig(bogus_responses=True, forge_infos=True),
            )
            workload = make_query_workload(instance, 120, seed=3)
            system.run_workload(workload)
        finally:
            unregister()
        assert system.ledger.integrity_violations
        assert "response-integrity" in checker.violated_invariants

    def test_integrity_violations_not_rereported_each_step(self):
        instance, system = build()
        checker = InvariantChecker(system)
        bogus_id = sorted(p.node_id for p in system.alive_peers())[0]
        system.set_misbehavior(
            bogus_id, MisbehaviorConfig(bogus_responses=True, forge_infos=True)
        )
        workload = make_query_workload(instance, 60, seed=3)
        system.run_workload(workload)
        checker.check_structural()
        count = len(checker.violations)
        assert count > 0
        checker.check_structural()  # same audit state, no new failures
        assert len(checker.violations) == count


class TestHonestWorlds:
    def test_audit_not_armed_by_default(self):
        _, system = build()
        assert not system.ledger.integrity_audit

    def test_unknown_node_rejected(self):
        _, system = build()
        with pytest.raises(ValueError, match="unknown node"):
            system.set_misbehavior(10_000, MisbehaviorConfig(bogus_responses=True))

    def test_honest_world_runs_no_integrity_checks(self):
        # Gating keeps honest worlds' check counts (and goldens) intact.
        from repro import obs

        obs.reset()
        instance, system = build()
        checker = InvariantChecker(system)
        checker.check_structural()
        assert "response-integrity" not in checker.violated_invariants
        timer = obs.REGISTRY.get("chaos.invariant.response-integrity_s")
        assert timer is None or timer.count == 0


class TestStaleGossip:
    def test_stale_replayer_does_not_corrupt_convergence(self):
        instance, system = build()
        stale_id = sorted(p.node_id for p in system.alive_peers())[0]
        system.set_misbehavior(stale_id, MisbehaviorConfig(stale_gossip=True))
        checker = InvariantChecker(system)
        # Drive many gossip rounds with the stale peer replaying its
        # frozen digest; the move-counter merge order makes the replay
        # harmless, so the network still converges.
        system.run_gossip_rounds(8)
        assert checker.check_convergence()
        assert not checker.violations

    def test_stale_digest_is_frozen_at_arming_time(self):
        instance, system = build()
        stale_id = sorted(p.node_id for p in system.alive_peers())[0]
        peer = system.peer(stale_id)
        system.set_misbehavior(stale_id, MisbehaviorConfig(stale_gossip=True))
        frozen = peer.membership._stale_gossip_digest
        assert frozen is not None
        assert frozen == tuple(peer.dcrt.snapshot().items())

    def test_stale_replayer_converges_after_a_real_move(self):
        from repro.overlay.adaptation import broadcast_notice, plan_category_move

        instance, system = build()
        stale_id = sorted(p.node_id for p in system.alive_peers())[0]
        system.set_misbehavior(stale_id, MisbehaviorConfig(stale_gossip=True))
        # A genuine category move bumps its move counter past the frozen
        # digest; replays of the stale digest must not roll anyone back.
        category_id = 0
        source = int(system.assignment.category_to_cluster[category_id])
        target = next(
            cluster_id
            for cluster_id in range(system.assignment.n_clusters)
            if cluster_id != source and system.peers_in_cluster(cluster_id)
        )
        notice = plan_category_move(system, category_id, source, target)
        coordinator = min(p.node_id for p in system.peers_in_cluster(source))
        broadcast_notice(system, notice, coordinator)
        system.sim.run()
        system.run_gossip_rounds(12)
        checker = InvariantChecker(system)
        assert checker.check_convergence()
        # The stale peer merges incoming gossip honestly, so even it
        # learns the new owner despite replaying its frozen digest.
        stale_peer = system.peer(stale_id)
        assert stale_peer.dcrt.cluster_of(category_id) == target
