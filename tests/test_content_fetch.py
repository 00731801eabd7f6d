"""Multi-source fetch: scheduling, failover, read-repair, and eviction.

The integration tests run a small :class:`P2PSystem` with the content
data plane enabled (256 KiB documents -> four chunks each); the
rarest-first unit tests drive a bare :class:`PeerContent` with a
fabricated source map.
"""

import pytest

from repro.content.chunks import ContentConfig
from repro.content.manifest import build_manifest
from repro.core.maxfair import maxfair
from repro.core.popularity import build_category_stats
from repro.core.replication import plan_replication
from repro.model.system import SystemConfig, build_system
from repro.overlay import messages as m
from repro.overlay.peer import DocInfo, PeerConfig
from repro.overlay.service import ServiceConfig
from repro.overlay.system import P2PSystem, P2PSystemConfig

from tests.helpers import MicroOverlay


def make_content_system(seed=7, cache_capacity=0, **content_kwargs):
    """A small live system with four-chunk documents and content on."""
    instance = build_system(SystemConfig(
        seed=seed,
        n_docs=40,
        n_nodes=10,
        n_categories=8,
        n_clusters=2,
        doc_size_bytes=262_144,
    ))
    stats = build_category_stats(instance)
    assignment = maxfair(instance, stats=stats)
    plan = plan_replication(instance, assignment, n_reps=2, hot_mass=0.35)
    return P2PSystem(
        instance,
        assignment,
        plan=plan,
        config=P2PSystemConfig(
            seed=seed,
            cache_capacity=cache_capacity,
            content=ContentConfig(enabled=True, **content_kwargs),
        ),
    )


def doc_with_holders(system, min_holders=2, exclude=()):
    """(doc_id, holders) for the first doc with enough live holders."""
    manager = system.content
    for doc_id in sorted(manager.manifests):
        holders = manager.live_holders(doc_id)
        if len(holders) >= min_holders and not set(holders) & set(exclude):
            return doc_id, holders
    raise AssertionError("no suitable document in this world")


def pick_requester(system, doc_id, exclude=()):
    for peer in system.alive_peers():
        if peer.node_id in exclude:
            continue
        if doc_id not in peer.docs:
            return peer
    raise AssertionError("every peer already holds the document")


class TestFetchHappyPath:
    def test_fetch_completes_verified_and_registers_holder(self):
        system = make_content_system()
        manager = system.content
        doc_id, holders = doc_with_holders(system)
        requester = pick_requester(system, doc_id)
        fetch_id = manager.fetch(requester.node_id, doc_id)
        assert fetch_id is not None
        system.sim.run()
        record = manager.record_for(fetch_id)
        assert record.completed_at is not None
        assert record.verified
        assert not record.failed
        manifest = manager.manifest_for(doc_id)
        assert record.chunk_hashes == manifest.chunk_hashes
        assert record.bytes_fetched == manifest.size_bytes
        assert requester.node_id in manager.live_holders(doc_id)
        # Completion cleared the partial-holder bookkeeping.
        assert doc_id not in manager.partials
        assert doc_id not in requester.content_state.partial

    def test_fetch_refuses_holders_dead_nodes_and_unknown_docs(self):
        system = make_content_system()
        manager = system.content
        doc_id, holders = doc_with_holders(system)
        assert manager.fetch(holders[0], doc_id) is None  # already holds
        requester = pick_requester(system, doc_id)
        assert manager.fetch(requester.node_id, 999_999) is None  # unknown
        system.crash_node(requester.node_id)
        assert manager.fetch(requester.node_id, doc_id) is None  # dead

    def test_unavailable_document_fails_into_the_ledger(self):
        system = make_content_system()
        manager = system.content
        doc_id, holders = doc_with_holders(system)
        for holder in holders:
            system.crash_node(holder)
        requester = pick_requester(system, doc_id)
        fetch_id = manager.fetch(requester.node_id, doc_id)
        assert fetch_id is not None  # unavailability is recorded, not hidden
        system.sim.run()
        record = manager.record_for(fetch_id)
        assert record.failed
        assert record.failure == "no-live-source"


class TestFailover:
    def test_holder_crash_mid_transfer_fails_over(self):
        system = make_content_system()
        manager = system.content
        doc_id, holders = doc_with_holders(system, min_holders=2)
        requester = pick_requester(system, doc_id)
        fetch_id = manager.fetch(requester.node_id, doc_id)
        # Kill one source while its chunk requests are still in flight.
        system.crash_node(holders[0])
        system.sim.run()
        record = manager.record_for(fetch_id)
        assert record.completed_at is not None
        assert record.verified
        assert record.failovers >= 1

    def test_cache_eviction_mid_transfer_fails_over(self):
        # A holder whose copy is cache-owned can evict it between the
        # moment a fetch resolved sources and the moment the chunk
        # request arrives.  The found=False reply must fail the chunk
        # over to a surviving source, not the whole fetch.
        system = make_content_system(cache_capacity=1)
        manager = system.content
        doc_id, holders = doc_with_holders(system, min_holders=2)
        survivor = holders[0]
        for extra in holders[2:]:
            system.crash_node(extra)
        # Give a third peer a *cache-owned* copy, as if it had retrieved
        # the document earlier.
        cacher = pick_requester(system, doc_id)
        cacher.queries.cache_store(manager.doc_info(doc_id))
        system.sim.run()
        assert cacher.node_id in manager.live_holders(doc_id)
        system.crash_node(holders[1])  # sources are now survivor + cacher
        requester = pick_requester(system, doc_id, exclude=(cacher.node_id,))
        fetch_id = manager.fetch(requester.node_id, doc_id)
        # LRU eviction while the chunk requests are in flight: caching a
        # second document evicts the first and deregisters the holder.
        other = next(
            d for d in sorted(manager.manifests)
            if d != doc_id and d not in cacher.docs
        )
        cacher.queries.cache_store(manager.doc_info(other))
        assert doc_id not in cacher.docs
        assert cacher.node_id not in manager.live_holders(doc_id)
        system.sim.run()
        record = manager.record_for(fetch_id)
        assert record.completed_at is not None, record.failure
        assert record.verified
        assert record.failovers >= 1
        assert requester.node_id in manager.live_holders(doc_id)

    def test_overloaded_holder_refuses_and_the_fetch_fails_over(self):
        # Holder 1's server is busy and its one-slot intake queue is full
        # when the fetch's chunk request arrives: it sheds the request by
        # answering chunk_data(found=False), never a query's BUSY, and the
        # fetcher gets the chunk from holder 2 instead.
        overlay = MicroOverlay()
        config = PeerConfig(
            service=ServiceConfig(enabled=True, queue_capacity=1),
            content=ContentConfig(enabled=True),
        )
        for node_id in (0, 1, 2):
            overlay.add_peer(node_id, config=config)
        info = DocInfo(doc_id=5, categories=(0,), size_bytes=1000)
        for holder in (1, 2):
            overlay.peers[holder].store_document(info)
        for request_id in (1, 2):
            overlay.network.send(
                2, 1, "chunk_request",
                m.ChunkRequest(
                    request_id=request_id, fetch_id=99, requester_id=2,
                    doc_id=5, chunk_index=0, chunk_bytes=1000,
                ),
            )
        requester = overlay.peers[0]
        content = requester.content_state
        answers = []

        def spy(data, src):
            answers.append((src, data.found))
            content.handle_chunk_data(data, src)

        requester.register("chunk_data", m.ChunkData, spy, replace=True)
        done = []
        content.start_fetch(
            1, info, build_manifest(5, 1000, 65_536),
            sources_fn=lambda: {0: (1, 2)},
            on_done=lambda *outcome: done.append(outcome),
        )
        overlay.run()
        assert overlay.peers[1].service_snapshot()["shed"] == 1
        assert answers == [(1, False), (2, True)]
        assert overlay.network.stats.by_kind.get("busy", 0) == 0
        assert done == [(1, True, "")]
        assert 5 in requester.docs


class TestSourceLookups:
    """One ``chunk_sources`` lookup for the first wave, one per failover."""

    @staticmethod
    def _counted(manager, monkeypatch):
        lookups = []
        chunk_sources = manager.chunk_sources

        def counting(doc_id):
            lookups.append(doc_id)
            return chunk_sources(doc_id)

        monkeypatch.setattr(manager, "chunk_sources", counting)
        return lookups

    def test_first_wave_looks_sources_up_once(self, monkeypatch):
        system = make_content_system()
        manager = system.content
        doc_id, _ = doc_with_holders(system)
        requester = pick_requester(system, doc_id)
        lookups = self._counted(manager, monkeypatch)
        fetch_id = manager.fetch(requester.node_id, doc_id)
        assert manager.record_for(fetch_id).n_chunks == 4
        assert lookups == [doc_id]
        system.sim.run()
        record = manager.record_for(fetch_id)
        assert record.verified and record.failovers == 0
        assert lookups == [doc_id]

    def test_each_failover_looks_sources_up_once_more(self, monkeypatch):
        system = make_content_system()
        manager = system.content
        doc_id, holders = doc_with_holders(system, min_holders=2)
        requester = pick_requester(system, doc_id)
        lookups = self._counted(manager, monkeypatch)
        fetch_id = manager.fetch(requester.node_id, doc_id)
        system.crash_node(holders[0])  # its chunk requests are in flight
        system.sim.run()
        record = manager.record_for(fetch_id)
        assert record.verified and record.failovers >= 1
        assert lookups == [doc_id] * (1 + record.failovers)

    def test_chunks_without_a_partial_holder_share_one_tuple(self):
        system = make_content_system()
        manager = system.content
        doc_id, holders = doc_with_holders(system, min_holders=2)
        sources = manager.chunk_sources(doc_id)
        assert list(sources) == [0, 1, 2, 3]
        assert all(nodes is sources[0] for nodes in sources.values())
        assert sources[0] == tuple(holders)
        # A live partial holder joins the chunks it has, sorted; a crashed
        # one and one that is a full holder already join none.
        partial, crashed = [
            p.node_id for p in system.alive_peers() if p.node_id not in holders
        ][:2]
        manager.note_partial(partial, doc_id, 2)
        manager.note_partial(crashed, doc_id, 1)
        manager.note_partial(holders[0], doc_id, 3)
        system.crash_node(crashed)
        sources = manager.chunk_sources(doc_id)
        assert sources[2] == tuple(sorted((*holders, partial)))
        assert sources[0] == sources[1] == sources[3] == tuple(holders)


class TestReadRepair:
    def test_corrupt_replica_is_detected_and_repaired(self):
        system = make_content_system()
        manager = system.content
        doc_id, holders = doc_with_holders(system, min_holders=2)
        for extra in holders[2:]:
            system.crash_node(extra)
        good, bad = holders[0], holders[1]
        bad_peer = system.peer(bad)
        manifest = manager.manifest_for(doc_id)
        for index in range(manifest.n_chunks):
            assert bad_peer.content_state.mark_corrupt(doc_id, index)
        requester = pick_requester(system, doc_id)
        fetch_id = manager.fetch(requester.node_id, doc_id)
        system.sim.run()
        record = manager.record_for(fetch_id)
        # The fetch completed with verified bytes despite the bad source,
        assert record.completed_at is not None
        assert record.verified
        assert record.chunk_hashes == manager.manifest_for(doc_id).chunk_hashes
        # ... pushed correct chunks back to the stale replica,
        assert record.repairs >= 1
        assert bad_peer.content_state.repairs_received >= 1
        repaired = set(range(manifest.n_chunks)) - (
            bad_peer.content_state.corrupt.get(doc_id, set())
        )
        assert repaired  # at least the chunks it served corrupt are clean
        # ... and bumped the manifest version.
        assert manager.manifest_for(doc_id).version >= 1
        assert record.manifest_version >= 1

    def test_mark_corrupt_requires_holding_the_chunk(self):
        system = make_content_system()
        manager = system.content
        doc_id, _ = doc_with_holders(system)
        outsider = pick_requester(system, doc_id)
        assert not outsider.content_state.mark_corrupt(doc_id, 0)


class TestRarestFirst:
    def _fetcher(self):
        overlay = MicroOverlay()
        peer = overlay.add_peer(
            0, config=PeerConfig(content=ContentConfig(enabled=True))
        )
        return overlay, peer, peer.content_state

    def test_order_is_scarcity_then_index(self):
        overlay, peer, content = self._fetcher()
        sources = {0: (1, 2), 1: (1,), 2: (1, 2, 3), 3: (2,)}
        requested = []
        peer._send = lambda dst, kind, payload, **kw: requested.append(
            (payload.chunk_index, dst)
        )
        manifest = build_manifest(9, size_bytes=40, chunk_size=10)
        info = DocInfo(doc_id=9, categories=(0,), size_bytes=40)
        content.start_fetch(
            1, info, manifest, sources_fn=lambda: dict(sources)
        )
        # Scarcest chunks first (1 and 3 have one source each), ties
        # broken by chunk index; then 0 (two sources), then 2 (three).
        assert [index for index, _ in requested] == [1, 3, 0, 2]

    def test_order_is_deterministic_across_runs(self):
        runs = []
        for _ in range(2):
            overlay, peer, content = self._fetcher()
            sources = {i: (1, 2, 3) for i in range(6)}
            requested = []
            peer._send = lambda dst, kind, payload, **kw: requested.append(
                (payload.chunk_index, dst)
            )
            manifest = build_manifest(9, size_bytes=60, chunk_size=10)
            info = DocInfo(doc_id=9, categories=(0,), size_bytes=60)
            content.start_fetch(
                1, info, manifest, sources_fn=lambda: dict(sources)
            )
            runs.append(tuple(requested))
        # All sources tie -> pure index order, and the stagger spreads
        # the first wave round-robin over the sorted sources; both are
        # RNG-free, so two fresh worlds issue identical request streams.
        assert runs[0] == runs[1]
        assert [index for index, _ in runs[0]] == list(range(6))
        assert [dst for _, dst in runs[0]] == [1, 2, 3, 1, 2, 3]

    def test_end_to_end_fetch_sequence_is_deterministic(self):
        ledgers = []
        for _ in range(2):
            system = make_content_system(seed=11)
            manager = system.content
            doc_id, _ = doc_with_holders(system)
            requester = pick_requester(system, doc_id)
            manager.fetch(requester.node_id, doc_id)
            system.sim.run()
            ledgers.append([
                (r.doc_id, r.completed_at, r.failovers, r.bytes_fetched,
                 r.chunk_hashes)
                for r in manager.fetch_ledger()
            ])
        assert ledgers[0] == ledgers[1]


class TestCrashLifecycle:
    def test_requester_crash_fails_open_fetches(self):
        system = make_content_system()
        manager = system.content
        doc_id, _ = doc_with_holders(system)
        requester = pick_requester(system, doc_id)
        fetch_id = manager.fetch(requester.node_id, doc_id)
        system.crash_node(requester.node_id)
        system.sim.run()
        record = manager.record_for(fetch_id)
        assert record.failed
        assert record.failure == "requester-crashed"
        assert requester.content_state.in_flight() == 0
