"""Graceful shutdown: drain, the replica loop over the leaver's
documents, and clean departure.

Also pins the crash/leave asymmetry fix: a graceful departure clears
the leaver from its neighbours' failure-detector suspect maps, while a
crash (no goodbye) leaves the suspicion evidence in place.
"""

from repro.core.maxfair import maxfair
from repro.core.popularity import build_category_stats
from repro.core.replication import plan_replication
from repro.model.system import SystemConfig, build_system
from repro.overlay.system import P2PSystem, P2PSystemConfig
from tests.helpers import build_live_system
from tests.test_content_fetch import (
    doc_with_holders,
    make_content_system,
    settled_records,
)


def make_sole_holder(system, min_holders=2):
    """Strip a document down to one holder; return (doc_id, holder)."""
    manager = system.content
    doc_id, holders = doc_with_holders(system, min_holders=min_holders)
    keeper = holders[0]
    for other in holders[1:]:
        system.peer(other).drop_document(doc_id)
    assert manager.live_holders(doc_id) == [keeper]
    return doc_id, keeper


def make_plain_system(seed):
    """``make_content_system``'s world with the content data plane off."""
    instance = build_system(SystemConfig(
        seed=seed,
        n_docs=40,
        n_nodes=10,
        n_categories=8,
        n_clusters=2,
        doc_size_bytes=262_144,
    ))
    assignment = maxfair(instance, stats=build_category_stats(instance))
    plan = plan_replication(instance, assignment, n_reps=2, hot_mass=0.35)
    return P2PSystem(
        instance, assignment, plan=plan, config=P2PSystemConfig(seed=seed)
    )


#: (leaver, left, {doc: new live holders}) for three shutdowns in a row
#: after the first three peers crashed, recorded at the commit before the
#: replica loop absorbed the sole-holder handoff.
PARENT_HANDOFFS = {
    7: [
        (3, True, {}),
        (4, True, {9: [5], 29: [5], 36: [9]}),
        (5, True, {7: [7], 9: [7], 11: [7], 12: [9], 20: [7], 22: [9],
                   28: [9], 29: [7], 31: [9]}),
    ],
    23: [
        (3, True, {3: [4], 14: [4], 17: [4], 24: [4], 26: [4]}),
        (4, True, {3: [5], 14: [5], 17: [7], 23: [7], 24: [5], 26: [7],
                   35: [5]}),
        (5, True, {0: [8], 3: [8], 5: [8], 10: [7], 11: [8], 14: [8],
                   16: [8], 24: [8], 27: [7], 35: [8], 38: [7]}),
    ],
}


class TestShutdownHandoff:
    def test_sole_holder_documents_survive_the_shutdown(self):
        system = make_content_system()
        manager = system.content
        doc_id, keeper = make_sole_holder(system)
        assert system.shutdown_node(keeper) is True
        assert not system.network.is_alive(keeper)
        assert keeper not in [p.node_id for p in system.alive_peers()]
        holders = manager.live_holders(doc_id)
        assert holders, "the last copy left with the leaver"
        assert keeper not in holders

    def test_manifest_ships_with_the_handoff(self):
        system = make_content_system()
        manager = system.content
        doc_id, keeper = make_sole_holder(system)
        before = manager.manifests.get(doc_id)
        assert system.shutdown_node(keeper) is True
        cached = [
            system.peer(holder).content_state.manifests.get(doc_id)
            for holder in manager.live_holders(doc_id)
        ]
        assert any(m is not None and m == before for m in cached)

    def test_shutdown_without_orphans_is_a_plain_leave(self):
        system = make_content_system()
        # Every document this node holds keeps the floor without it, so
        # the loop moves nothing and the node just leaves.
        manager = system.content
        floor = manager.config.replication_floor
        for peer in system.alive_peers():
            if peer.docs and all(
                len(manager.live_holders(doc_id)) > floor for doc_id in peer.docs
            ):
                node_id = peer.node_id
                break
        else:
            raise AssertionError("no fully-replicated node in this world")
        held = sorted(system.peer(node_id).docs)
        settled = settled_records(manager)
        assert system.shutdown_node(node_id) is True
        assert settled == []
        for doc_id in held:
            assert len(manager.live_holders(doc_id)) >= floor, doc_id

    def test_dead_node_cannot_shut_down(self):
        system = make_content_system()
        victim = system.alive_peers()[0].node_id
        system.crash_node(victim)
        assert system.shutdown_node(victim) is False
        assert system.shutdown_node(999_999) is False  # unknown node

    def test_shutdown_aborts_when_the_last_copy_cannot_move(self):
        system = make_content_system()
        # Leave exactly one node alive; its documents have nowhere to go.
        peers = system.alive_peers()
        keeper = next(p for p in peers if p.docs)
        for peer in peers:
            if peer.node_id != keeper.node_id:
                system.crash_node(peer.node_id)
        held = dict(keeper.docs)
        assert system.shutdown_node(keeper.node_id) is False
        # The node stayed up and kept every document: leaving would have
        # destroyed the community's last copies.
        assert system.network.is_alive(keeper.node_id)
        assert keeper.docs == held

    def test_shutdown_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            system = make_content_system(seed=23)
            doc_id, keeper = make_sole_holder(system)
            ok = system.shutdown_node(keeper)
            outcomes.append(
                (ok, doc_id, system.content.live_holders(doc_id))
            )
        assert outcomes[0] == outcomes[1]

    def test_content_shutdown_leaves_every_document_at_the_floor(self):
        # The loop moves every document the leaver held, not only the ones
        # it held alone: each ends with floor live copies without it.
        system = make_content_system()
        manager = system.content
        floor = manager.config.replication_floor
        doc_id, holders = doc_with_holders(system, min_holders=floor)
        keeper = holders[0]
        for other in holders[floor:]:
            system.peer(other).drop_document(doc_id)
        assert len(manager.live_holders(doc_id)) == floor
        held = sorted(system.peer(keeper).docs)
        settled = settled_records(manager)
        assert system.shutdown_node(keeper) is True
        for doc_id in held:
            holders = manager.live_holders(doc_id)
            assert keeper not in holders
            assert len(holders) >= floor, (doc_id, holders)
        assert {r.purpose for r in settled} == {"heal"}
        assert all(r.verified for r in settled)

    def test_content_off_shutdown_matches_the_parent_handoffs(self):
        # Without content the floor is one copy: the same documents go to
        # the same destinations as the sole-holder handoff did.
        for seed, expected in PARENT_HANDOFFS.items():
            system = make_plain_system(seed)
            peers = [p.node_id for p in system.alive_peers()]
            for victim in peers[:3]:
                system.crash_node(victim)
            handoffs = []
            for leaver in peers[3:6]:
                before = {
                    doc_id: set(system.ledger.live_holders(doc_id))
                    for doc_id in sorted(system.peers[leaver].docs)
                }
                left = system.shutdown_node(leaver)
                moved = {
                    doc_id: sorted(set(system.ledger.live_holders(doc_id)) - old)
                    for doc_id, old in before.items()
                }
                handoffs.append(
                    (leaver, left, {d: n for d, n in moved.items() if n})
                )
            assert handoffs == expected, seed


class TestCrashLeaveAsymmetry:
    def _suspecting_pair(self, system):
        """(observer, target_id): observer is a cluster neighbour that
        has accumulated enough misses to suspect the target."""
        for peer in system.alive_peers():
            for neighbors in peer.cluster_neighbors.values():
                for target in sorted(neighbors):
                    if system.network.is_alive(target):
                        threshold = (
                            peer.detector.config.suspicion_threshold
                        )
                        for _ in range(threshold):
                            peer.detector.note_missed(target)
                        assert target in peer.detector.suspects
                        return peer, target
        raise AssertionError("no neighbouring pair found")

    def test_leave_clears_lingering_suspicion(self):
        # Regression: a node that left gracefully used to linger in its
        # neighbours' suspect maps forever (recover_node cleared
        # crash-era state, but nothing cleared leave-era state).
        _, system = build_live_system(scale=0.02, seed=31)
        observer, target = self._suspecting_pair(system)
        system.leave_node(target)
        system.sim.run()
        assert target not in observer.detector.suspects
        assert target not in observer.detector._misses

    def test_crash_keeps_suspicion(self):
        # The asymmetry is intentional in the other direction: a crash
        # sends no goodbye, so the suspicion evidence must survive.
        _, system = build_live_system(scale=0.02, seed=31)
        observer, target = self._suspecting_pair(system)
        system.crash_node(target)
        system.sim.run()
        assert target in observer.detector.suspects

    def test_graceful_shutdown_clears_suspicion_too(self):
        system = make_content_system()
        observer, target = self._suspecting_pair(system)
        assert system.shutdown_node(target) is True
        assert target not in observer.detector.suspects


class TestCrashDuringHandoff:
    """Regression: a leaver that dies mid-shutdown must abort the leave.

    Before the drain guards, a crash landing inside the handoff loop let
    the shutdown run to completion and count partially shipped documents
    as placed copies — destroying last copies and breaking
    no-sole-holder-loss.  Now every handoff round (and the final drain)
    re-checks liveness and aborts: the crash path owns the node.
    """

    def test_crash_during_initial_drain_aborts_the_shutdown(self):
        system = make_content_system()
        doc_id, keeper = make_sole_holder(system)
        # The crash fires inside shutdown_node's own drain, before the
        # first handoff round inspects the world.
        system.sim.schedule(0.0, lambda: system.crash_node(keeper))
        assert system.shutdown_node(keeper) is False
        # The crash path owns the node: its disk keeps the document and
        # a recovery brings the copy (and its advertisement) back.
        assert doc_id in system.peers[keeper].docs
        system.recover_node(keeper)
        assert keeper in system.content.live_holders(doc_id)

    def test_crash_mid_handoff_does_not_count_partial_transfers(self):
        system = make_content_system()
        manager = system.content
        doc_id, keeper = make_sole_holder(system)
        original = manager.fetch
        targets = []

        def crash_after_fetch(requester_id, fetched, purpose="fetch"):
            fetch_id = original(requester_id, fetched, purpose)
            if fetched == doc_id:
                targets.append(requester_id)
                # The leaver dies the instant the copy starts: the fetch
                # can never complete, so nothing has been placed.
                system.crash_node(keeper)
            return fetch_id

        manager.fetch = crash_after_fetch
        assert system.shutdown_node(keeper) is False
        system.sim.run()
        assert targets
        # A half-fetched copy must not have registered its target as a
        # live holder of a document it never finished fetching.
        for target_id in targets:
            assert doc_id not in system.peers[target_id].docs
            assert target_id not in manager.live_holders(doc_id)
        # And the crashed disk still has the last copy for recovery.
        assert doc_id in system.peers[keeper].docs
