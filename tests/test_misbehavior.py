"""Misbehaving peers: bogus responses and stale gossip stay bounded."""

import pytest

from repro.chaos.invariants import InvariantChecker
from repro.core.maxfair import maxfair
from repro.core.popularity import build_category_stats
from repro.core.replication import plan_replication
from repro.model.system import SystemConfig, build_system
from repro.model.workload import make_query_workload
from repro.overlay import messages as m
from repro.overlay import misbehavior
from repro.overlay.messages import DocInfo
from repro.overlay.system import P2PSystem, P2PSystemConfig

from tests.helpers import patch_method

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


def forge(system, node_id):
    """Arm ``node_id`` as bogus, then harden its lie: the forged answer
    ships complete metadata, so it passes the requester's local check."""
    misbehavior.arm(system, node_id, "bogus")
    peer = system.peers[node_id]

    def handle_query(queries, query, src):
        if not queries.accept(query):
            return
        fake = misbehavior.BOGUS_DOC_BASE + query.query_id
        info = DocInfo(fake, (query.category_id,), m.CONTROL_SIZE)
        peer._send(
            query.requester_id,
            "query_response",
            m.QueryResponse(
                query.query_id, (fake,), node_id, query.hops, doc_infos=(info,)
            ),
        )

    peer.register("query", m.QueryMessage, peer.queries, handle_query, replace=True)


class TestBogusResponses:
    def test_rejectable_bogus_mode_is_caught_by_requesters(self):
        from repro import obs

        sent = obs.counter("overlay.bogus_responses_sent")
        rejected = obs.counter("overlay.bogus_responses_rejected")
        sent0, rejected0 = sent.value, rejected.value
        instance, system = build()
        bogus_id = sorted(p.node_id for p in system.alive_peers())[0]
        misbehavior.arm(system, bogus_id, "bogus")
        workload = make_query_workload(instance, 120, seed=3)
        system.run_workload(workload)
        # Loss-free world: every fabricated answer reaches its requester.
        assert sent.value - sent0 > 0, "no query reached the bogus responder"
        assert rejected.value - rejected0 == sent.value - sent0
        # Every rejection was silent at the requester: no fabricated
        # document id ever entered an accepted outcome.
        assert not system.ledger.audit.violations

    def test_rejected_queries_fail_over_to_honest_holders(self):
        instance, system = build()
        bogus_id = sorted(p.node_id for p in system.alive_peers())[0]
        misbehavior.arm(system, bogus_id, "bogus")
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
            misbehavior.arm(system, bogus_id, "bogus")
            workload = make_query_workload(instance, 80, seed=5)
            system.run_workload(workload)
        finally:
            unregister()
        assert "response-integrity" not in checker.violated_invariants

    def test_forged_infos_trip_the_integrity_invariant(self):
        # A forged answer passes the requester's local length check — the
        # system-level audit must catch it.
        instance, system = build()
        checker = InvariantChecker(system)
        unregister = system.sim.on_quiescence(checker.check_structural)
        try:
            bogus_id = sorted(p.node_id for p in system.alive_peers())[0]
            forge(system, bogus_id)
            workload = make_query_workload(instance, 120, seed=3)
            system.run_workload(workload)
        finally:
            unregister()
        assert system.ledger.audit.violations
        assert "response-integrity" in checker.violated_invariants

    def test_integrity_violations_not_rereported_each_step(self):
        instance, system = build()
        checker = InvariantChecker(system)
        bogus_id = sorted(p.node_id for p in system.alive_peers())[0]
        forge(system, bogus_id)
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
        assert system.ledger.audit is None

    def test_unknown_node_rejected(self):
        _, system = build()
        with pytest.raises(ValueError, match="unknown node"):
            misbehavior.arm(system, 10_000, "bogus")

    def test_unknown_mode_rejected(self):
        _, system = build()
        with pytest.raises(ValueError, match="unknown misbehaviour mode"):
            misbehavior.arm(system, 0, "forge")
        assert system.ledger.audit is None

    def test_ledger_does_not_grow_over_store_drop_cycles(self):
        # An honest world keeps no drop log: storing and dropping the
        # same documents leaves every book of the ledger its old size.
        instance, system = build()
        peer = system.alive_peers()[0]
        infos = [
            DocInfo(doc.doc_id, doc.categories, doc.size_bytes)
            for doc in instance.documents.values()
            if doc.doc_id not in peer.docs
        ][:50]

        def sizes():
            return {
                name: len(value)
                for name, value in vars(system.ledger).items()
                if hasattr(value, "__len__")
            }

        before = sizes()
        for _ in range(6):
            for info in infos:
                peer.store_document(info)
            for info in infos:
                peer.drop_document(info.doc_id)
        assert system.ledger.audit is None
        assert sizes() == before

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
        misbehavior.arm(system, stale_id, "stale_gossip")
        checker = InvariantChecker(system)
        # Drive many gossip rounds with the stale peer replaying its
        # frozen digest; the move-counter merge order makes the replay
        # harmless, so the network still converges.
        system.run_gossip_rounds(8)
        checker.check("gossip-convergence")
        assert not checker.violations

    def test_stale_digest_is_frozen_at_arming_time(self):
        instance, system = build()
        stale_id = sorted(p.node_id for p in system.alive_peers())[0]
        peer = system.peer(stale_id)
        misbehavior.arm(system, stale_id, "stale_gossip")
        frozen = peer.membership._stale_gossip_digest
        assert frozen is not None
        assert frozen == tuple(peer.dcrt.snapshot().items())

    def test_stale_replayer_converges_after_a_real_move(self):
        from repro.overlay.adaptation import broadcast_notice, plan_category_move

        instance, system = build()
        stale_id = sorted(p.node_id for p in system.alive_peers())[0]
        misbehavior.arm(system, stale_id, "stale_gossip")
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
        checker.check("gossip-convergence")
        assert not checker.violations
        # The stale peer merges incoming gossip honestly, so even it
        # learns the new owner despite replaying its frozen digest.
        stale_peer = system.peer(stale_id)
        assert stale_peer.dcrt.cluster_of(category_id) == target


class TestArming:
    def test_arming_needs_a_quiescent_world(self):
        _, system = build()
        system.sim.schedule(1.0, lambda: None)
        with pytest.raises(RuntimeError, match="quiescent"):
            misbehavior.arm(system, 0, "bogus")
        assert system.ledger.audit is None
        system.sim.run()
        misbehavior.arm(system, 0, "bogus")
        assert system.ledger.audit is not None

    def test_stale_gossip_after_bogus_answers_honestly(self):
        from repro import obs

        sent = obs.counter("overlay.bogus_responses_sent")
        rejected = obs.counter("overlay.bogus_responses_rejected")
        instance, system = build()
        node_id = sorted(p.node_id for p in system.alive_peers())[0]
        peer = system.peer(node_id)
        misbehavior.arm(system, node_id, "bogus")
        misbehavior.arm(system, node_id, "stale_gossip")
        sent0, rejected0, served0 = sent.value, rejected.value, peer.requests_served
        system.run_workload(make_query_workload(instance, 120, seed=3))
        assert peer.requests_served > served0, "no query reached the peer"
        assert (sent.value, rejected.value) == (sent0, rejected0)
        assert peer.membership._stale_gossip_digest is not None

    def test_bogus_after_stale_gossip_sends_a_fresh_digest(self, monkeypatch):
        from repro.overlay.metadata import DCRTEntry

        _, system = build()
        node_id = sorted(p.node_id for p in system.alive_peers())[0]
        peer = system.peer(node_id)
        misbehavior.arm(system, node_id, "stale_gossip")
        frozen = peer.membership._stale_gossip_digest
        misbehavior.arm(system, node_id, "bogus")
        # Move one category after the freeze: an honest push carries it.
        old = peer.dcrt.entry(0)
        peer.dcrt.merge(0, DCRTEntry(old.cluster_id, old.move_counter + 1))
        pushed = []
        send = peer._send

        def record(dst, kind, payload, size=m.CONTROL_SIZE):
            if kind == "gossip":
                pushed.append(payload.entries)
            send(dst, kind, payload, size)

        patch_method(monkeypatch, peer, "_send", record)
        peer.membership.gossip_once()
        assert pushed == [tuple(peer.dcrt.snapshot().items())]
        assert pushed[0] != frozen

    def test_power_loss_keeps_a_bogus_peer_and_ends_a_replay(self):
        _, system = build()
        bogus_id, stale_id = sorted(p.node_id for p in system.alive_peers())[:2]
        misbehavior.arm(system, bogus_id, "bogus")
        misbehavior.arm(system, stale_id, "stale_gossip")
        bogus, stale = system.peer(bogus_id), system.peer(stale_id)
        system.power_loss(bogus_id)
        system.power_loss(stale_id)
        # The dispatch entry survives the wipe; the frozen digest is
        # volatile membership state and goes with it.
        honest = type(stale.queries).handle_query
        assert bogus._dispatch["query"][2] is not honest
        assert stale._dispatch["query"][2] is honest
        assert stale.membership._stale_gossip_digest is None
