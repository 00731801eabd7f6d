"""Per-peer service model: bounded intake queue + admission control.

Pins the tentpole behaviours of :mod:`repro.overlay.service`: the model
is off by default (instant, unbounded serving — byte-identical legacy
runs), service time scales inversely with capacity, the queue bound
holds, accounting conserves queries, each admission policy sheds the
right victim, and every run drains back to quiescence.
"""

import pytest

from repro import obs
from repro.overlay.peer import PeerConfig
from repro.overlay.service import ADMISSION_POLICIES, ServiceConfig
from tests.helpers import MicroOverlay


def _service_config(**overrides) -> ServiceConfig:
    defaults = dict(
        enabled=True,
        base_service_time=0.2,
        queue_capacity=4,
        policy="drop-tail",
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _single_server_world(config: ServiceConfig):
    """Client 0 -> server 1 (cluster 0, category 0, doc 7)."""
    overlay = MicroOverlay(seed=0)
    server = overlay.add_peer(1, config=PeerConfig(service=config))
    client = overlay.add_peer(0)
    overlay.wire_cluster(0, [1], edges=[], category_map={0: 0})
    overlay.give_document(1, 7, [0])
    client.dcrt.set(0, 0)
    client.nrt.add(0, 1)
    return overlay, server, client


def _burst(overlay, client, query_ids, category=0, doc_id=7):
    """Issue queries back-to-back so they all land during one service."""
    for offset, query_id in enumerate(query_ids):
        overlay.sim.schedule_at(
            offset * 1e-4,
            lambda q=query_id, c=category, d=doc_id: client.start_query(
                q, c, 1, target_doc_id=d
            ),
        )
    overlay.run()


class TestDefaults:
    def test_disabled_by_default(self):
        overlay = MicroOverlay()
        peer = overlay.add_peer(1)
        assert peer.service is None
        assert peer.service_snapshot() is None

    def test_disabled_peer_serves_instantly(self):
        overlay, server, client = _single_server_world(ServiceConfig())
        assert server.service is None
        client.start_query(1, 0, 1, target_doc_id=7)
        overlay.run()
        (response_entry,) = overlay.hooks.responses
        # Two network hops only: no service delay was added.
        assert overlay.sim.now < 0.2

    def test_enabled_peer_pays_service_time(self):
        overlay, server, client = _single_server_world(
            _service_config(base_service_time=0.5)
        )
        client.start_query(1, 0, 1, target_doc_id=7)
        overlay.run()
        assert [entry[1].query_id for entry in overlay.hooks.responses] == [1]
        assert overlay.sim.now >= 0.5

    def test_service_time_scales_with_capacity(self):
        overlay = MicroOverlay()
        config = PeerConfig(service=_service_config(base_service_time=0.4))
        strong = overlay.add_peer(1, capacity=4.0, config=config)
        weak = overlay.add_peer(2, capacity=0.5, config=config)
        assert strong.service.service_time == pytest.approx(0.1)
        assert weak.service.service_time == pytest.approx(0.8)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(base_service_time=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(queue_capacity=-1)
        with pytest.raises(ValueError):
            ServiceConfig(policy="lifo")
        with pytest.raises(ValueError):
            ServiceConfig(policy="shed-popular")
        assert ADMISSION_POLICIES == ("drop-tail", "redirect")


class TestDropTail:
    def test_burst_bounds_queue_and_conserves_queries(self):
        g_depth = obs.gauge("overload.queue_depth")
        depth_before = g_depth.value
        overlay, server, client = _single_server_world(
            _service_config(queue_capacity=4)
        )
        _burst(overlay, client, range(10))

        snap = server.service_snapshot()
        assert snap["offered"] == 10
        assert snap["capacity"] == 4
        assert snap["max_depth"] <= snap["capacity"]
        # One in service + four queued fit; the last five are shed.
        assert snap["processed"] == 5
        assert snap["shed"] == 5
        assert snap["redirected"] == 0
        assert (
            snap["processed"] + snap["shed"] + snap["redirected"]
            == snap["offered"]
        )
        assert overlay.network.stats.by_kind["busy"] == 5

        # FIFO: the earliest queries were admitted, the overflow shed.
        served = sorted(e[1].query_id for e in overlay.hooks.responses)
        assert served == [0, 1, 2, 3, 4]
        # Reliability is off, so a BUSY is terminal at the requester.
        assert overlay.hooks.failures == [
            (0, q, "overloaded") for q in (5, 6, 7, 8, 9)
        ]

        # Drained to quiescence, gauge restored.
        assert snap["depth"] == 0
        assert snap["in_service"] is False
        assert g_depth.value == depth_before

    def test_unbounded_queue_never_sheds(self):
        overlay, server, client = _single_server_world(
            _service_config(queue_capacity=0)
        )
        _burst(overlay, client, range(10))
        snap = server.service_snapshot()
        assert snap["processed"] == 10
        assert snap["shed"] == 0
        assert snap["max_depth"] == 9  # everything behind the first waited
        assert not overlay.hooks.failures


class TestRedirect:
    def test_overflow_redirects_to_replica_holder(self):
        c_redirected = obs.counter("overload.redirected")
        redirected_before = c_redirected.value
        overlay = MicroOverlay(seed=0)
        slow = overlay.add_peer(
            1,
            config=PeerConfig(
                service=_service_config(
                    policy="redirect", queue_capacity=1, base_service_time=0.5
                )
            ),
        )
        overlay.add_peer(2)  # replica holder, instant service
        client = overlay.add_peer(0)
        overlay.wire_cluster(0, [1, 2], edges=[(1, 2)], category_map={0: 0})
        overlay.give_document(1, 7, [0])
        overlay.give_document(2, 7, [0])
        client.dcrt.set(0, 0)
        client.nrt.add(0, 1)  # the client only ever targets the slow node

        _burst(overlay, client, range(6))

        snap = slow.service_snapshot()
        assert snap["processed"] == 2  # one served + one queued
        assert snap["redirected"] == 4
        assert snap["shed"] == 0
        assert c_redirected.value - redirected_before == 4
        assert not overlay.hooks.failures
        # Every query got an answer; the overflow came from the holder.
        responders = [e[1].responder_id for e in overlay.hooks.responses]
        assert len(responders) == 6
        assert responders.count(2) == 4

    def test_redirect_without_alternatives_sheds(self):
        overlay, server, client = _single_server_world(
            _service_config(policy="redirect", queue_capacity=1)
        )
        _burst(overlay, client, range(4))
        snap = server.service_snapshot()
        # Sole member and sole holder: redirect has nowhere to go.
        assert snap["redirected"] == 0
        assert snap["shed"] == 2
        assert len(overlay.hooks.failures) == 2
