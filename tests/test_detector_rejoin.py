"""Failure-detector hygiene across flapping links and crash/rejoin cycles.

The regression being pinned: a node that crashes accumulates suspicions
about peers whose pongs could never reach it.  If that stale suspect set
survives the rejoin, the healed node silently refuses to route through
perfectly healthy peers — a blackhole that only shows up as mysterious
query failures.  ``clear_failure_state`` (wired into
``P2PSystem.recover_node``) must wipe it.
"""

import pytest

from repro import obs
from repro.overlay.peer import PeerConfig
from repro.overlay.system import P2PSystemConfig
from repro.reliability.channel import ReliabilityConfig
from repro.reliability.detector import FailureDetector
from repro.model.workload import make_query_workload
from repro.sim.engine import Simulator
from repro.sim.network import Network
from tests.helpers import MicroOverlay, build_live_system


def _detector(threshold: int = 2) -> FailureDetector:
    sim = Simulator()
    network = Network(sim)
    config = ReliabilityConfig(enabled=True, suspicion_threshold=threshold)
    return FailureDetector(0, network, config)


class TestFlapping:
    def test_alternating_evidence_never_suspects(self):
        c_suspects = obs.counter("reliability.suspicions")
        c_cleared = obs.counter("reliability.suspicions_cleared")
        suspects0, cleared0 = c_suspects.value, c_cleared.value
        detector = _detector(threshold=2)
        # A flapping link: misses never become *consecutive* misses.
        for _ in range(8):
            detector.note_missed(5)
            assert not detector.suspects
            detector.note_alive(5)
        assert not detector.suspects
        assert c_suspects.value - suspects0 == 0
        # Nothing was ever suspected, so nothing was ever cleared.
        assert c_cleared.value - cleared0 == 0

    def test_threshold_consecutive_misses_suspect_once(self):
        c_suspects = obs.counter("reliability.suspicions")
        suspects0 = c_suspects.value
        detector = _detector(threshold=2)
        detector.note_missed(5)
        detector.note_missed(5)
        assert detector.suspects == {5}
        detector.note_missed(5)  # further misses do not double-count
        assert c_suspects.value - suspects0 == 1

    def test_alive_evidence_clears_suspicion(self):
        c_cleared = obs.counter("reliability.suspicions_cleared")
        cleared0 = c_cleared.value
        detector = _detector(threshold=2)
        detector.note_missed(5)
        detector.note_missed(5)
        detector.note_alive(5)
        assert not detector.suspects
        assert c_cleared.value - cleared0 == 1
        # The miss streak restarted from zero.
        detector.note_missed(5)
        assert not detector.suspects

    def test_reset_clears_state_and_accounts(self):
        c_cleared = obs.counter("reliability.suspicions_cleared")
        cleared0 = c_cleared.value
        detector = _detector(threshold=1)
        detector.note_missed(3)
        detector.note_missed(4)
        assert detector.suspects == {3, 4}
        detector.clear_failure_state()
        assert not detector.suspects
        assert c_cleared.value - cleared0 == 2
        # Miss streaks were also wiped: one new miss re-suspects (threshold
        # 1) from fresh evidence, not stale counts.
        detector.note_missed(3)
        assert detector.suspects == {3}


class TestRejoinClearsSuspicion:
    def test_crashed_node_rejoins_without_stale_suspects(self):
        """Crash B, let it wrongly suspect C, heal, query through B."""
        overlay = MicroOverlay(seed=1)
        reliability = ReliabilityConfig(enabled=True, probe_timeout=0.5)
        for node_id in (0, 1, 2):
            overlay.add_peer(
                node_id, config=PeerConfig(reliability=reliability)
            )
        a, b, c = overlay.peers[0], overlay.peers[1], overlay.peers[2]
        overlay.wire_cluster(0, [1], edges=[])
        overlay.wire_cluster(1, [2], edges=[], category_map={5: 1})
        overlay.give_document(2, 7, [5])
        a.dcrt.set(5, 0)  # A's stale belief: category 5 still lives in B's cluster
        a.nrt.add(0, 1)
        b.nrt.add(1, 2)

        # B crashes; its probes of C go nowhere, so every probe times out
        # and C — alive the whole time — becomes a suspect at B.
        overlay.network.crash(1)
        for _ in range(2):
            b.detector.probe(2)
            overlay.run()
        assert b.detector.suspects == {2}

        # B heals and rejoins: the crash-era evidence must not survive.
        overlay.network.recover(1)
        b.clear_failure_state()
        assert not b.detector.suspects

        # A queries through B (stale DCRT): B forwards to C — which a
        # lingering suspicion would have excluded — and the query succeeds.
        a.start_query(100, 5, 1, target_doc_id=7)
        overlay.run()
        assert not overlay.hooks.failures
        responses = [e[1] for e in overlay.hooks.responses]
        assert [r.query_id for r in responses] == [100]
        assert responses[0].responder_id == 2

    def test_system_recover_node_resets_detector(self):
        instance, system = build_live_system(
            config=P2PSystemConfig(
                seed=31, reliability=ReliabilityConfig(enabled=True)
            )
        )
        victim = system.alive_peers()[0]
        node_id = victim.node_id
        other = system.alive_peers()[1].node_id
        system.crash_node(node_id)
        # Suspicion accrued while crashed (e.g. timed-out probes).
        victim.detector.note_missed(other)
        victim.detector.note_missed(other)
        assert victim.detector.suspects == {other}

        healed = system.recover_node(node_id)
        assert healed is victim
        assert not victim.detector.suspects
        assert node_id in [peer.node_id for peer in system.alive_peers()]

        # The healed world still answers queries.
        outcomes = system.run_workload(make_query_workload(instance, 20, seed=5))
        assert len(outcomes) == 20
        assert any(outcome.succeeded for outcome in outcomes)

    def test_recover_node_rejects_non_departed_and_graceful_leavers(self):
        _, system = build_live_system(
            config=P2PSystemConfig(
                seed=31, reliability=ReliabilityConfig(enabled=True)
            )
        )
        alive = [peer.node_id for peer in system.alive_peers()]
        with pytest.raises(ValueError, match="not a departed member"):
            system.recover_node(alive[0])
        system.leave_node(alive[1])
        with pytest.raises(ValueError, match="left gracefully"):
            system.recover_node(alive[1])
