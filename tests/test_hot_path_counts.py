"""Call-count guards on the simulated query path and the world build.

Exact and seed-determined — no wall clock.  Each guard pins a cost the
stack benchmark measured and a later change could quietly bring back: the
control round rescanning the world once per (document, holder) pair, the
routing-table lookup allocating a row it throws away, the replica plan
paying a Python call per replica it places, a build starting collector
passes over objects it keeps, the world bootstrap paying one
per NRT entry, capability entry and copy, the content data plane hashing
every chunk of every document before any fetch reads one, the wire codec
paying a Python call per value of a frame or growing its frames, a
journal keeping its durable view of a peer's holdings with no reader, a
build encoding every journal's baseline snapshot before anything reads it,
a peer holding its own copy of the dispatch table every peer shares or
building evidence sets no detector round has written.
"""

import gc
import sys
import tracemalloc
from dataclasses import replace

import pytest

from repro import obs
from repro.content import fetcher, manifest
from repro.content.chunks import ContentConfig, chunk_hash
from repro.core.replication import build_world, plan_replication
from repro.durability import DurabilityConfig, encode_snapshot
from repro.durability import journal as journal_module
from repro.experiments.world_size import python_calls
from repro.live.node import LiveClientPeer
from repro.model.workload import make_query_workload
from repro.overlay import metadata, misbehavior
from repro.overlay.membership_protocol import MembershipProtocol
from repro.overlay.messages import DocInfo, QueryMessage, QueryResponse
from repro.overlay.metadata import DCRTEntry
from repro.overlay.query_protocol import QueryProtocol
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
    # 55,613 copies of 4,000 documents, nine in ten of them hot documents
    # going to every member of their cluster: 284 calls, a few per
    # category.  Placed one ``store()`` at a time the plan made 130,979
    # calls; hot copies in bulk but base replicas through ``store()``,
    # 8,019.
    assert calls < len(instance.documents) / 4 < placed


def _collections_started(build):
    """``(build(), collector passes started inside it)``."""
    started = []

    def note(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(note)
    try:
        return build(), started
    finally:
        gc.callbacks.remove(note)


def test_no_collection_starts_inside_a_build(paper_world):
    instance, assignment, _ = paper_world
    assert gc.isenabled()
    plan, started = _collections_started(
        lambda: plan_replication(instance, assignment)
    )
    assert started == []
    # With the collector on, the plan starts one gen-0 pass and this
    # full-stack build 69 gen-0 and 6 gen-1 passes, none of which frees
    # anything the build made.
    system, started = _collections_started(
        lambda: P2PSystem(instance, assignment, plan=plan, config=PEER_CONFIG)
    )
    assert len(system.peers) == 400 and started == []
    assert gc.isenabled()


def test_the_collector_is_back_on_after_a_build_that_raises(paper_world):
    instance, assignment, plan = paper_world
    doc_id = next(iter(plan.node_docs[min(plan.node_docs)]))
    # A copy of a placed document, emptied past ``Document``'s own check.
    doc = replace(instance.documents[doc_id])
    object.__setattr__(doc, "categories", ())
    broken = replace(instance, documents={**instance.documents, doc_id: doc})
    with pytest.raises(ValueError, match="at least one category"):
        P2PSystem(broken, assignment, plan=plan)
    assert gc.isenabled()


def test_a_build_leaves_a_paused_collector_paused(paper_world):
    gc.disable()
    try:
        system = P2PSystem(*paper_world)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert len(system.peers) == 400


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


def test_full_stack_build_encodes_no_snapshot_until_one_is_read(
    paper_world, monkeypatch
):
    encoded = []
    monkeypatch.setattr(
        journal_module,
        "encode_snapshot",
        lambda *args: encoded.append(1) or encode_snapshot(*args),
    )
    config = P2PSystemConfig(
        seed=7,
        cache_capacity=8,
        reliability=ReliabilityConfig(enabled=True),
        service=ServiceConfig(enabled=True, queue_capacity=32, policy="redirect"),
        replication=ReplicationConfig(enabled=True),
        content=ContentConfig(enabled=True),
        durability=DurabilityConfig(enabled=True),
    )
    system = P2PSystem(*paper_world, config=config)
    # Each of the 400 journals compacts a baseline at attach; encoded
    # there, the build made 400 of these calls over 59,458 copies.
    assert {system.journal(n).snapshots_written for n in system.peers} == {1}
    assert encoded == [] and len(system.recovery.bodies) == 0
    # The first read of a journal encodes its baseline, once.
    peer = system.alive_peers()[0]
    journal = system.journal(peer.node_id)
    journal.load()
    journal.load()
    assert encoded == [1] and len(system.recovery.bodies) == len(peer.docs)


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


#: the stack benchmark's full-stack peer: every optional layer on, with
#: the channel's retry budget, breakers and adaptive timeouts.
PEER_CONFIG = P2PSystemConfig(
    seed=7,
    cache_capacity=8,
    reliability=ReliabilityConfig(
        enabled=True,
        retry_budget_ratio=0.5,
        breaker_threshold=3,
        adaptive_timeout=True,
        max_attempts=8,
        query_attempts=16,
    ),
    service=ServiceConfig(enabled=True, queue_capacity=32, policy="redirect"),
    replication=ReplicationConfig(enabled=True),
    content=ContentConfig(enabled=True),
    durability=DurabilityConfig(enabled=True),
)


def test_full_stack_peers_share_one_dispatch_table(full_stack_world):
    tables = {id(peer._dispatch) for peer in full_stack_world.peers.values()}
    assert len(tables) == 1


def test_a_peer_costs_at_most_5500_bytes_to_construct(paper_world, monkeypatch):
    # 4,741 B a peer here.  5,605 with the failure detector's four empty
    # sets (216 B each) built before any detector round writes one;
    # 11,811 with a dispatch table per peer (24 (payload class, bound
    # method) entries and their dict, 3.6 KiB), a __dict__ per peer and
    # component, and an empty service-queue deque (760 B).
    constructed = []
    new_peer = P2PSystem._new_peer

    def measured(system, *args):
        before, _ = tracemalloc.get_traced_memory()
        peer = new_peer(system, *args)
        after, _ = tracemalloc.get_traced_memory()
        constructed.append(after - before)
        return peer

    monkeypatch.setattr(P2PSystem, "_new_peer", measured)
    gc.collect()
    tracemalloc.start()
    try:
        P2PSystem(*paper_world, config=PEER_CONFIG)
    finally:
        tracemalloc.stop()
    assert len(constructed) == 400
    assert sum(constructed) / len(constructed) <= 5_500


@pytest.fixture
def small_full_stack_world():
    return build_live_system(scale=0.005, seed=7, config=PEER_CONFIG)[1]


def test_an_armed_peer_lies_from_a_private_table(small_full_stack_world):
    system = small_full_stack_world
    peers = sorted(system.peers.values(), key=lambda peer: peer.node_id)
    liar, honest = peers[1], peers[2]
    shared = honest._dispatch
    misbehavior.arm(system, liar.node_id, "bogus")
    assert liar._dispatch is not shared
    assert liar._dispatch["query"][2] is not QueryProtocol.handle_query
    assert shared["query"][2] is QueryProtocol.handle_query
    assert all(peer._dispatch is shared for peer in peers if peer is not liar)

    sent = obs.counter("overlay.bogus_responses_sent")
    requester = peers[0].node_id
    for query_id, target in enumerate((honest, liar, honest), start=900_000):
        before = sent.value
        query = QueryMessage(query_id, requester, 0, 1, target_cluster=0)
        target.handle_message(Message(requester, target.node_id, "query", query))
        system.sim.run()
        assert sent.value - before == (target is liar)


def test_a_live_client_changes_no_servers_join_reply(small_full_stack_world):
    system = small_full_stack_world
    shared = next(iter(system.peers.values()))._dispatch
    client = LiveClientPeer(
        10_000,
        capacity_units=1.0,
        rng=system.rngs.stream("client"),
        config=system.peer(0).config,
        transport=system.network,
    )
    assert client._dispatch is not shared
    assert shared["join_reply"][2] is MembershipProtocol.handle_join_reply
    client.start_join(0)
    system.sim.run()
    assert client.bootstrapped and not client.memberships

    joiner = system.join_node(10_001, 1.0)
    assert joiner._dispatch is shared
    assert all(peer._dispatch is shared for peer in system.peers.values())
    # The joiner's reply ran the membership protocol to the end: it
    # dummy-published into a cluster, which the client does not.
    assert joiner.memberships
