"""Call-count guards on the simulated query path and the world build.

Exact and seed-determined — no wall clock.  Each guard pins a cost the
stack benchmark measured and a later change could quietly bring back: the
control round rescanning the world once per (document, holder) pair, the
routing-table lookup allocating a row it throws away, the replica plan
paying a Python call per copy it places, the world bootstrap paying one
per NRT entry, capability entry and copy, the content data plane hashing
every chunk of every document before any fetch reads one, the wire codec
paying a Python call per value of a frame or growing its frames, a
journal keeping its durable view of a peer's holdings with no reader.
"""

import gc
import sys
import tracemalloc

import pytest

from repro.content import fetcher, manifest
from repro.content.chunks import ContentConfig, chunk_hash
from repro.core.replication import build_world, plan_replication
from repro.durability import DurabilityConfig
from repro.experiments.world_size import python_calls
from repro.model.workload import make_query_workload
from repro.overlay import metadata
from repro.overlay.messages import DocInfo, QueryMessage, QueryResponse
from repro.overlay.metadata import DCRTEntry
from repro.overlay.replication_manager import ReplicationConfig
from repro.overlay.service import ServiceConfig
from repro.overlay.system import P2PSystem, P2PSystemConfig
from repro.reliability import ReliabilityConfig
from repro.transport import Message
from repro.transport.wire import decode_frame, encode_frame

from tests.helpers import build_live_system
from tests.test_content_fetch import (
    doc_with_holders,
    make_content_system,
    pick_requester,
)


@pytest.fixture(scope="module")
def full_stack_world():
    """Every optional layer on, after 200 queries (cache fills included)."""
    config = P2PSystemConfig(
        seed=31,
        cache_capacity=8,
        reliability=ReliabilityConfig(enabled=True),
        service=ServiceConfig(enabled=True, queue_capacity=32, policy="redirect"),
        replication=ReplicationConfig(enabled=True),
        content=ContentConfig(enabled=True),
        durability=DurabilityConfig(enabled=True),
    )
    instance, system = build_live_system(config=config)
    outcomes = system.run_workload(make_query_workload(instance, 200, seed=31))
    assert len(outcomes) == 200
    return system


def test_a_world_nobody_checks_materializes_no_durable_view(full_stack_world):
    # The durable view is a second copy of each peer's holdings; only
    # invariant checks and restarts read it.
    system = full_stack_world
    journals = [system.journal(node_id) for node_id in system.peers]
    for journal in journals:
        journal.compact()
    assert all(journal._durable_docs is None for journal in journals)


def test_read_signals_tests_liveness_once_per_distinct_holder(
    full_stack_world, monkeypatch
):
    system = full_stack_world
    manager = system.replication
    holders_view = system.doc_holders_view()
    holder_sets = {
        category_id: [holders_view.get(doc_id, set()) for doc_id in doc_ids]
        for category_id, doc_ids in manager._category_docs.items()
    }
    distinct = sum(len(set().union(*sets)) for sets in holder_sets.values())
    pairs = sum(len(s) for sets in holder_sets.values() for s in sets)

    is_alive = system.network.is_alive
    calls = []

    def counting(node_id):
        calls.append(node_id)
        return is_alive(node_id)

    monkeypatch.setattr(system.network, "is_alive", counting)
    manager._read_signals()
    monkeypatch.undo()

    # One per distinct holder of each category, plus ``alive_peers()``'s
    # one per peer; the pair scan made ``pairs`` of them.
    assert len(calls) <= distinct + len(system.peers) < pairs


def test_dcrt_entry_allocates_nothing_for_a_known_category(
    full_stack_world, monkeypatch
):
    system = full_stack_world
    peer = system.alive_peers()[0]
    allocated = []

    def counting(*args):
        allocated.append(args)
        return DCRTEntry(*args)

    monkeypatch.setattr(metadata, "DCRTEntry", counting)
    for category_id in range(system.n_categories):
        assert peer.dcrt.entry(category_id) is peer.dcrt.entry(category_id)
    assert allocated == []
    # The default row for an unknown category is still built on demand.
    assert peer.dcrt.entry(system.n_categories + 1) == DCRTEntry(0, 0)
    assert len(allocated) == 1


@pytest.mark.parametrize(
    "message, ceiling",
    [
        (Message(1, 2, "query", QueryMessage(7, 1, 3, 2, attempt=1)), 9),
        (
            Message(
                2,
                1,
                "query_response",
                QueryResponse(7, (4,), 2, 1, (), (DocInfo(4, (3,), 1024),)),
                1024,
            ),
            10,
        ),
    ],
    ids=["query", "query_response"],
)
def test_a_frame_costs_a_few_calls_to_encode_and_decode(message, ceiling):
    decoded, calls = python_calls(lambda: decode_frame(encode_frame(message)))
    assert decoded == message
    # 7 and 8 calls with a generated binary codec per wire type (the
    # frame functions, the type's encoder and decoder, the constructors);
    # 16 and 17 through a generated JSON record and ``json``, 50 and 60
    # with a call per value.
    assert calls <= ceiling


def test_a_query_frame_is_116_bytes():
    # 4 length + 2 version and kind length + "query" + 1 type id + 5
    # header int64s + 8 payload int64s, whatever the values.  The JSON
    # envelope of this message took 266.
    frame = encode_frame(Message(1, 2, "query", QueryMessage(7, 1, 3, 2, attempt=1)))
    assert len(frame) == 116


@pytest.fixture(scope="module")
def paper_world():
    return build_world(scale=0.02, seed=7)


def test_plan_replication_makes_fewer_calls_than_it_places_copies(paper_world):
    instance, assignment, _ = paper_world
    plan, calls = python_calls(lambda: plan_replication(instance, assignment))
    placed = sum(len(docs) for docs in plan.node_docs.values())
    # 55,613 copies, nine in ten of them hot documents going to every member
    # of their cluster; placed one ``store()`` at a time the plan made
    # 130,979 calls.
    assert calls < placed


def test_world_bootstrap_makes_fewer_calls_than_it_places_copies(paper_world):
    system, calls = python_calls(lambda: P2PSystem(*paper_world))
    copies = sum(len(peer.docs) for peer in system.peers.values())
    # 59,458 copies and 242,621 NRT entries on 400 peers: 36,954 calls, most
    # of them building the peers.  A call per NRT entry, per capability
    # entry and per copy made 523,170.
    assert calls < copies


def test_world_bootstrap_memory_and_shared_capability_tables(paper_world):
    gc.collect()
    tracemalloc.start()
    try:
        system = P2PSystem(*paper_world)
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 15.7 MB on CPython 3.11; the ceiling is 20 % above.  NRT tables as
    # ``OrderedDict``s (85-91 B an entry, not a list's 8) made it 35.9 MB;
    # per-member capability tables, a fresh ``int`` per NRT entry and a
    # second (node, doc) set on top of that, 54.4 MB.
    assert allocated < 18_800_000

    def table_bytes(tables):
        return sum(sys.getsizeof(dict(table)) for table in tables)

    held = {
        id(table): table
        for peer in system.peers.values()
        for table in peer.known_capabilities.values()
    }
    one_per_cluster = [
        dict.fromkeys(members, 1.0)
        for members in system.topology.members.values()
        if members
    ]
    assert table_bytes(held.values()) <= 2 * table_bytes(one_per_cluster)


def test_content_on_build_hashes_no_chunk_and_a_fetch_only_its_own(
    paper_world, monkeypatch
):
    hashed = {manifest: [], fetcher: []}
    for module, calls in hashed.items():
        monkeypatch.setattr(
            module,
            "chunk_hash",
            lambda doc_id, index, calls=calls: (
                calls.append((doc_id, index)) or chunk_hash(doc_id, index)
            ),
        )
    config = P2PSystemConfig(seed=7, content=ContentConfig(enabled=True))
    world = P2PSystem(*paper_world, config=config)
    # 4,000 manifests, 64 chunks each at the benchmark's document size:
    # hashed at registration, the build made 256,000 of these calls.
    assert len(world.content.manifests) == 4000
    assert hashed == {manifest: [], fetcher: []}

    system = make_content_system(durability=True)
    registry = system.content.manifests
    doc_id, _ = doc_with_holders(system)
    requester = pick_requester(system, doc_id)
    record = system.content.record_for(
        system.content.fetch(requester.node_id, doc_id)
    )
    system.sim.run()
    assert record.verified
    chunks = [(doc_id, index) for index in range(4)]
    # The manifest derives its four hashes once; each holder hashes the
    # chunk it serves.
    assert hashed[manifest] == chunks
    assert sorted(hashed[fetcher]) == chunks

    # Journal replay builds a fresh manifest per cached one; recovery swaps
    # in the registry's equal object, so no peer derives the hashes again.
    system.power_loss(requester.node_id)
    system.sim.run()
    system.recover_node(requester.node_id)
    cached = requester.content_state.manifests
    assert cached[doc_id] is registry[doc_id]
    for cached_id, cached_manifest in cached.items():
        if cached_manifest._identity() == registry[cached_id]._identity():
            assert cached_manifest is registry[cached_id], cached_id
    assert hashed[manifest] == chunks
    assert sorted(hashed[fetcher]) == chunks
