"""Graceful shutdown: drain, sole-holder handoff, and clean departure.

Also pins the crash/leave asymmetry fix: a graceful departure clears
the leaver from its neighbours' failure-detector suspect maps, while a
crash (no goodbye) leaves the suspicion evidence in place.
"""

from repro.overlay.handoff import handoff_target, sole_holder_docs
from tests.helpers import build_live_system
from tests.test_content_fetch import (
    doc_with_holders,
    make_content_system,
    pick_requester,
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
        # Every document this node holds has another live copy, so no
        # handoff traffic is needed and the node just leaves.
        manager = system.content
        for peer in system.alive_peers():
            if peer.docs and not sole_holder_docs(system, peer.node_id):
                node_id = peer.node_id
                break
        else:
            raise AssertionError("no fully-replicated node in this world")
        held = sorted(system.peer(node_id).docs)
        assert system.shutdown_node(node_id) is True
        for doc_id in held:
            assert manager.live_holders(doc_id), doc_id

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
                        assert peer.detector.is_suspect(target)
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
        assert not observer.detector.is_suspect(target)
        assert target not in observer.detector._misses

    def test_crash_keeps_suspicion(self):
        # The asymmetry is intentional in the other direction: a crash
        # sends no goodbye, so the suspicion evidence must survive.
        _, system = build_live_system(scale=0.02, seed=31)
        observer, target = self._suspecting_pair(system)
        system.crash_node(target)
        system.sim.run()
        assert observer.detector.is_suspect(target)

    def test_graceful_shutdown_clears_suspicion_too(self):
        system = make_content_system()
        observer, target = self._suspecting_pair(system)
        assert system.shutdown_node(target) is True
        assert not observer.detector.is_suspect(target)


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
        doc_id, keeper = make_sole_holder(system)
        target = handoff_target(system, doc_id, keeper)
        assert target is not None
        original = target.adaptation.pull_documents

        def crash_after_pull(src, category_id, doc_ids):
            original(src, category_id, doc_ids)
            # The leaver dies the instant the pull goes out: the
            # transfer can never complete, so nothing has been placed.
            system.crash_node(keeper)

        target.adaptation.pull_documents = crash_after_pull
        assert system.shutdown_node(keeper) is False
        system.sim.run()
        # The half-shipped manifest must not have registered the target
        # as a live holder of a copy it never finished pulling.
        assert doc_id not in target.docs
        assert target.node_id not in system.content.live_holders(doc_id)
        # And the crashed disk still has the last copy for recovery.
        assert doc_id in system.peers[keeper].docs
