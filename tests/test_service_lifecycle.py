"""Service-queue lifecycle across crashes and capacity changes.

Regression tests for two bugs in :mod:`repro.overlay.service`:

* a scheduled ``_complete`` used to fire on a peer whose host had
  crashed, silently "serving" queries from a dead node while the queries
  admitted behind it leaked forever — now ``Peer.handle_crash`` disarms
  the completion (epoch bump) and sheds every admitted query, and the
  overload invariants cover crashed peer objects so an *unwired* crash
  path is caught instead of masked;
* ``service_time`` was computed once at construction, so a capacity
  change mid-run (adaptation moving load) kept the stale service rate —
  now it is a property over the live ``capacity_units``.
"""

import pytest

from repro.chaos import InvariantChecker
from repro.overlay.peer import PeerConfig
from repro.overlay.service import ServiceConfig
from repro.overlay.system import P2PSystemConfig

from tests.helpers import build_live_system, MicroOverlay, violated


def _service_config(**overrides) -> ServiceConfig:
    defaults = dict(
        enabled=True,
        base_service_time=0.4,
        queue_capacity=4,
        policy="drop-tail",
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _busy_server_world(config=None):
    """Client 0 -> server 1; a burst leaves server 1 mid-service with a
    full queue at t = 1.0."""
    overlay = MicroOverlay(seed=0)
    server = overlay.add_peer(
        1, config=PeerConfig(service=config or _service_config(
            base_service_time=5.0
        ))
    )
    client = overlay.add_peer(0)
    overlay.wire_cluster(0, [1], edges=[], category_map={0: 0})
    overlay.give_document(1, 7, [0])
    client.dcrt.set(0, 0)
    client.nrt.add(0, 1)
    for offset, query_id in enumerate(range(5)):
        overlay.sim.schedule(
            offset * 1e-4,
            lambda q=query_id: client.start_query(q, 0, 1, target_doc_id=7),
        )
    return overlay, server, client


class TestCrashLifecycle:
    def test_crash_sheds_admitted_work_and_disarms_completion(self):
        overlay, server, client = _busy_server_world()
        # Crash mid-first-service: one query in service, four queued.
        overlay.sim.schedule(1.0, lambda: overlay.network.crash(1))
        overlay.sim.schedule(1.0, server.handle_crash)
        overlay.run()

        snap = server.service_snapshot()
        # Nothing was served by the corpse; everything admitted was shed.
        assert snap["processed"] == 0
        assert snap["shed"] == 5
        assert snap["depth"] == 0
        assert snap["in_service"] is False
        assert (
            snap["processed"] + snap["shed"] + snap["redirected"]
            == snap["offered"]
        )
        assert overlay.hooks.responses == []
        # The BUSY notifications originate from a crashed node, so the
        # network drops them: the requester hears nothing, but the
        # server-side accounting still conserves every query.
        assert overlay.hooks.failures == []

    def test_completion_scheduled_before_crash_never_fires(self):
        overlay, server, client = _busy_server_world()
        processed_at_crash = {}

        def crash():
            overlay.network.crash(1)
            server.handle_crash()
            processed_at_crash["value"] = server.service_snapshot()["processed"]

        overlay.sim.schedule(1.0, crash)
        overlay.run()
        # The completion armed at admission time was still pending at the
        # crash; the epoch guard must have swallowed it.
        assert (
            server.service_snapshot()["processed"]
            == processed_at_crash["value"]
            == 0
        )

    def test_recovered_server_serves_again(self):
        """A crash wipes admitted work, not the server: after recovery a
        fresh query is admitted, served, and accounted under the same
        conservation identity."""
        overlay, server, client = _busy_server_world()
        overlay.sim.schedule(1.0, lambda: overlay.network.crash(1))
        overlay.sim.schedule(1.0, server.handle_crash)
        overlay.run()
        overlay.network.recover(1)
        client.start_query(99, 0, 1, target_doc_id=7)
        overlay.run()
        snap = server.service_snapshot()
        assert snap["processed"] == 1
        assert snap["shed"] == 5
        assert [e[1].query_id for e in overlay.hooks.responses] == [99]


class TestInvariantCoverageOfCrashedPeers:
    def _system_with_busy_victim(self):
        """A live system where one sole-holder node sits mid-service with
        queued work at t = 3.0 — the moment the tests crash it."""
        config = P2PSystemConfig(
            seed=31,
            service=ServiceConfig(
                enabled=True, base_service_time=5.0, queue_capacity=8
            ),
        )
        _instance, system = build_live_system(
            scale=0.02, seed=31, config=config, with_plan=False
        )
        holders = system.doc_holders_view()
        victim_id, doc_id = next(
            (next(iter(nodes)), doc_id)
            for doc_id, nodes in sorted(holders.items())
            if len(nodes) == 1
        )
        requester = next(
            peer
            for peer in system.alive_peers()
            if peer.node_id != victim_id
        )
        category_id = system.peers[victim_id].dt.categories_of(doc_id)[0]
        for offset, query_id in enumerate(range(4)):
            system.sim.schedule(
                offset * 1e-3,
                lambda q=query_id: requester.start_query(
                    q, category_id, 1, target_doc_id=doc_id
                ),
            )
        return system, victim_id

    def test_unwired_crash_path_is_caught(self):
        """Crashing the network without the peer-side lifecycle (the old
        bug) leaves the corpse's queue undrained — and the overload
        invariants, which cover crashed peer objects, flag it."""
        system, victim_id = self._system_with_busy_victim()
        checker = InvariantChecker(system)

        def bad_crash():
            system.network.crash(victim_id)
            system._departed.add(victim_id)  # no peer.handle_crash()

        system.sim.schedule(3.0, bad_crash)
        system.sim.run()
        checker.check_structural()
        assert "overload-drain" in violated(checker)

    def test_wired_crash_path_is_clean(self):
        """The same scenario through ``P2PSystem.crash_node`` (which calls
        ``Peer.handle_crash``) passes every structural invariant."""
        system, victim_id = self._system_with_busy_victim()
        checker = InvariantChecker(system)
        system.sim.schedule(3.0, lambda: system.crash_node(victim_id))
        system.sim.run()
        checker.check_structural()
        assert checker.violations == []


class TestServiceTimeTracksCapacity:
    def test_property_follows_capacity_changes(self):
        overlay = MicroOverlay()
        peer = overlay.add_peer(
            1, capacity=2.0,
            config=PeerConfig(service=_service_config(base_service_time=0.4)),
        )
        assert peer.service.service_time == pytest.approx(0.2)
        peer.capacity_units = 4.0
        assert peer.service.service_time == pytest.approx(0.1)

    def test_capacity_change_mid_run_changes_service_rate(self):
        overlay = MicroOverlay(seed=0)
        server = overlay.add_peer(
            1, capacity=1.0,
            config=PeerConfig(service=_service_config(base_service_time=0.4)),
        )
        client = overlay.add_peer(0)
        overlay.wire_cluster(0, [1], edges=[], category_map={0: 0})
        overlay.give_document(1, 7, [0])
        client.dcrt.set(0, 0)
        client.nrt.add(0, 1)

        client.start_query(1, 0, 1, target_doc_id=7)
        overlay.run()
        first_done = overlay.sim.now
        assert first_done >= 0.4

        server.capacity_units = 8.0  # the node got faster mid-run
        client.start_query(2, 0, 1, target_doc_id=7)
        overlay.run()
        second_elapsed = overlay.sim.now - first_done
        # 0.05s of service plus two network hops: far under the stale
        # 0.4s the at-construction snapshot would still be charging.
        assert second_elapsed < 0.4
        assert len(overlay.hooks.responses) == 2
