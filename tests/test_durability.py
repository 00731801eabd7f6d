"""Durable crash recovery: WAL/snapshot codec, journal replay, amnesia
crashes, epoch fencing, and partition-heal reconciliation.

The layering under test (see ``docs/architecture.md`` §Durability):

* :mod:`repro.durability.wal` — crc-framed records; a torn tail must
  never poison the valid prefix.
* :mod:`repro.durability.store` — the in-memory sim store and the
  fsync'd file store hold the *same bytes*, so replay semantics proved
  here hold for ``--state-dir`` deployments too.
* :mod:`repro.durability.journal` — write-ahead records + compacting
  snapshots; ``materialize(snapshot, records)`` of what was persisted
  must be byte-identical (under canonical encoding) to the live peer's
  durable state at any quiescent point.
* overlay integration — ``power_loss`` wipes volatile memory,
  ``recover_node`` replays the journal, fenced ``ReassignNotice``
  epochs reject stale owners, and a reconciliation round converges a
  split-brain category back to the authoritative assignment.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.chaos.harness import ChaosRunner
from repro.chaos.scenario import ScenarioConfig, Schedule
from repro.core.replication import build_world
from repro.durability import (
    DurabilityConfig,
    FileStore,
    MemoryStore,
    PeerJournal,
    decode_snapshot,
    durable_state,
    empty_state,
    encode_record,
    encode_snapshot,
    materialize,
    replay_wal,
)
from repro.model.workload import QueryWorkload, make_query_workload
from repro.overlay.messages import ReassignNotice
from repro.overlay.metadata import DCRTEntry
from repro.overlay.peer import DocInfo
from repro.overlay.system import P2PSystem, P2PSystemConfig
from repro.reliability import ReliabilityConfig

from tests.helpers import build_live_system


def make_recovery_system(seed=11, **overrides):
    """The chaos harness's world with journals armed (durability on)."""
    config = ScenarioConfig(features={"recovery"}, **overrides)
    return ChaosRunner(Schedule(seed=seed, entries=()), config).system


# ----------------------------------------------------------------------
# WAL codec
# ----------------------------------------------------------------------
#: a well-formed log prefix: records of three kinds.
_VALID = [("store", 1, 10, [0]), ("dcrt", 3, 1, 5), ("join", 4)]
#: any JSON value (what a record field can decode to).
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


class TestWalCodec:
    def test_records_roundtrip(self):
        records = [
            ("store", 7, 4096, [1, 2]),
            ("drop", 7),
            ("dcrt", 3, 1, 5),
            ("epoch", 3, 2),
        ]
        data = b"".join(encode_record(r) for r in records)
        assert replay_wal(data) == records

    def test_record_and_snapshot_bytes_are_golden(self):
        # One record of every name and one snapshot, byte for byte as they
        # were written before the codec began reusing module-level
        # encoders: a WAL on disk must replay under either version.
        golden = {
            ("store", 7, 262144, (1, 2)):
                b'ed94e70e ["store",7,262144,[1,2]]\n',
            ("drop", 8): b'1876c46c ["drop",8]\n',
            ("dcrt", 3, 1, 5): b'2c815941 ["dcrt",3,1,5]\n',
            ("epoch", 3, 2): b'c22628b1 ["epoch",3,2]\n',
            ("join", 4): b'aec9aea2 ["join",4]\n',
            ("manifest", 7, 262144, 65536, 1):
                b'88d59b62 ["manifest",7,262144,65536,1]\n',
            ("flags", 2.5, True): b'd771ef97 ["flags",2.5,true]\n',
        }
        for record, expected in golden.items():
            assert encode_record(record) == expected
        state = materialize(None, list(golden))
        # Keys are written sorted whatever order the dict was built in.
        shuffled = dict(reversed(list(state.items())))
        for spelling in (state, shuffled):
            assert encode_snapshot(spelling) == (
                b'c528f086 {"dcrt":[[3,1,5]],"docs":[[7,262144,[1,2]]],'
                b'"epochs":[[3,2]],'
                b'"flags":{"capacity":2.5,"free_rider":true},'
                b'"manifests":[[7,262144,65536,1]],"memberships":[4]}\n'
            )

    def test_torn_tail_replays_longest_valid_prefix(self):
        store = MemoryStore()
        for record in (("store", 1, 10, []), ("store", 2, 10, []), ("drop", 1)):
            store.append(encode_record(record))
        _, wal = store.load()
        # Tear the last record anywhere mid-frame: the first two records
        # must replay; the torn third must be ignored, not crash replay.
        last_len = len(encode_record(("drop", 1)))
        for torn in range(1, last_len):
            store2 = MemoryStore()
            store2.append(wal)
            store2.tear_wal(len(wal) - torn)
            _, torn_wal = store2.load()
            assert replay_wal(torn_wal) == [
                ("store", 1, 10, []),
                ("store", 2, 10, []),
            ]

    def test_corrupt_frame_stops_replay_at_the_damage(self):
        good = encode_record(("store", 1, 10, []))
        bad = bytearray(encode_record(("store", 2, 10, [])))
        bad[10] ^= 0xFF  # flip a body byte: crc mismatch
        after = encode_record(("store", 3, 10, []))
        # Everything after the damaged frame is unreachable — offsets
        # cannot be trusted past a bad crc.
        assert replay_wal(good + bytes(bad) + after) == [("store", 1, 10, [])]

    def test_unknown_record_kinds_are_skipped(self):
        state = materialize(
            None,
            [
                ("store", 5, 64, [0]),
                ("hologram", 1, 2, 3),  # a future record kind
                ("epoch", 0, 4),
            ],
        )
        assert [doc[0] for doc in state["docs"]] == [5]
        assert state["epochs"] == [[0, 4]]

    def test_materialize_of_nothing_is_the_empty_state(self):
        assert materialize(None, []) == empty_state()

    @pytest.mark.parametrize(
        "bad",
        [
            ("store",),
            ("store", 1),
            ("dcrt", 1),
            ("join",),
            ("epoch", 1, "x"),
            ("store", 1, 10, 5),
            ("manifest", 1, 2),
            ("flags", "fast", True),
            ("drop", True),
        ],
    )
    def test_malformed_record_ends_replay_like_a_torn_frame(self, bad):
        store = MemoryStore()
        for record in (*_VALID, bad, ("drop", 1)):
            store.append(encode_record(record))
        assert replay_wal(store.load()[1]) == _VALID
        assert PeerJournal(store).load() == materialize(None, _VALID)

    @pytest.mark.parametrize(
        "snapshot",
        [
            {"docs": [1]},
            {"dcrt": [[1, 2]]},
            {"memberships": 5},
            {"flags": [1]},
            {"manifests": [[1, 2, 3, "4"]]},
            {"flags": {"capacity": 1.0}},
        ],
    )
    def test_non_canonical_snapshot_is_discarded(self, snapshot):
        store = MemoryStore()
        store.write_snapshot(encode_snapshot(snapshot))
        store.append(encode_record(("join", 4)))
        assert decode_snapshot(store.load()[0]) is None
        assert PeerJournal(store).load() == materialize(None, [("join", 4)])

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(
            ["store", "drop", "dcrt", "epoch", "join", "manifest", "flags"]
        )
        | _JSON,
        fields=st.lists(_JSON, max_size=5),
    )
    def test_replay_is_total_over_one_arbitrary_record(self, kind, fields):
        store = MemoryStore()
        for record in (*_VALID, (kind, *fields)):
            store.append(encode_record(record))
        records = replay_wal(store.load()[1])
        # The valid prefix always survives; the extra record is kept only
        # when it has its kind's shape (or a kind replay does not know).
        assert records in (_VALID, [*_VALID, (kind, *fields)])
        assert PeerJournal(store).load() == materialize(None, records)


# ----------------------------------------------------------------------
# stores
# ----------------------------------------------------------------------
class TestFileStore:
    def test_roundtrips_like_memory_store(self, tmp_path):
        mem, disk = MemoryStore(), FileStore(tmp_path / "node-0")
        for store in (mem, disk):
            store.append(encode_record(("store", 1, 10, [])))
            store.write_snapshot(encode_snapshot(empty_state()))
            store.append(encode_record(("store", 2, 10, [])))
        assert mem.load() == disk.load()
        disk.close()

    def test_snapshot_truncates_wal(self, tmp_path):
        store = FileStore(tmp_path / "node-1")
        store.append(encode_record(("store", 1, 10, [])))
        store.write_snapshot(encode_snapshot(empty_state()))
        snapshot, wal = store.load()
        assert snapshot is not None
        assert wal == b""
        store.close()

    def test_torn_file_tail_replays_longest_valid_prefix(self, tmp_path):
        store = FileStore(tmp_path / "node-2")
        store.append(encode_record(("store", 1, 10, [])))
        store.append(encode_record(("store", 2, 10, [])))
        store.close()
        raw = store.wal_path.read_bytes()
        store.wal_path.write_bytes(raw[:-3])  # torn mid-final-record
        _, wal = store.load()
        assert replay_wal(wal) == [("store", 1, 10, [])]


# ----------------------------------------------------------------------
# journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_auto_compaction_consults_snapshot_fn(self):
        journal = PeerJournal(
            MemoryStore(), DurabilityConfig(enabled=True, snapshot_every=4)
        )
        state = empty_state()
        state["docs"] = [[9, 16, [1]]]
        journal.snapshot_fn = lambda: state
        for i in range(10):
            journal.record("dcrt", i, 0, 1)
        assert journal.snapshots_written >= 2
        assert journal.load()["docs"] == [[9, 16, [1]]]

    def test_durable_doc_ids_track_store_and_drop(self):
        journal = PeerJournal(MemoryStore(), DurabilityConfig(enabled=True))
        journal.record("store", 1, 10, [0])
        journal.record("store", 2, 10, [0])
        journal.record("drop", 1)
        assert journal.durable_doc_ids() == frozenset({2})


# ----------------------------------------------------------------------
# overlay integration
# ----------------------------------------------------------------------
class TestPowerLossRecovery:
    def _victim(self, system):
        return max(
            system.alive_peers(), key=lambda peer: len(peer.docs)
        ).node_id

    def test_replay_is_byte_identical_to_live_state(self):
        system = make_recovery_system()
        for peer in system.alive_peers()[:8]:
            journal = system.journal(peer.node_id)
            assert journal is not None
            persisted = encode_snapshot(journal.load())
            live = encode_snapshot(durable_state(peer, journal.flags))
            assert persisted == live

    def test_recover_restores_docs_memberships_and_dcrt(self):
        system = make_recovery_system()
        victim = self._victim(system)
        peer = system.peer(victim)
        docs = dict(peer.docs)
        memberships = set(peer.memberships)
        dcrt = dict(peer.dcrt.items())
        system.power_loss(victim)
        assert peer.lost_memory
        assert not peer.docs and not peer.memberships
        system.sim.run()
        system.recover_node(victim)
        assert not peer.lost_memory
        assert dict(peer.docs) == docs
        assert set(peer.memberships) == memberships
        assert dict(peer.dcrt.items()) == dcrt

    def test_recovered_holdings_are_readvertised(self):
        system = make_recovery_system()
        victim = self._victim(system)
        held = sorted(system.peer(victim).docs)
        system.power_loss(victim)
        system.sim.run()
        # The wipe is honest: the holder directory forgets the victim...
        view = system.doc_holders_view()
        assert all(victim not in view.get(doc_id, ()) for doc_id in held)
        system.recover_node(victim)
        # ...and recovery re-advertises every acknowledged document.
        view = system.doc_holders_view()
        assert all(victim in view.get(doc_id, ()) for doc_id in held)

    def test_acknowledged_drop_survives_its_own_compaction(self):
        # snapshot_every=1: the drop record itself triggers compaction,
        # which must snapshot the state *after* the drop — not resurrect
        # the document and truncate the record that removed it.
        durability = DurabilityConfig(enabled=True, snapshot_every=1)
        _instance, system = build_live_system(
            config=P2PSystemConfig(durability=durability)
        )
        peer = system.alive_peers()[0]
        journal = system.journal(peer.node_id)
        info = DocInfo(doc_id=10**9, categories=(0,), size_bytes=64)
        peer.store_document(info)
        peer.drop_document(info.doc_id)
        system.power_loss(peer.node_id)
        system.sim.run()
        system.recover_node(peer.node_id)
        assert info.doc_id not in peer.docs
        assert encode_snapshot(
            durable_state(peer, journal.flags)
        ) == encode_snapshot(journal.load())

    def test_amnesia_without_journal_is_permanent(self):
        config = ScenarioConfig(features={"content"})  # durability off: no journals
        system = ChaosRunner(Schedule(seed=11, entries=()), config).system
        victim = self._victim(system)
        peer = system.peer(victim)
        assert peer.docs
        system.power_loss(victim)
        system.sim.run()
        others = system.stored_docs_by_node()
        system.recover_node(victim)
        assert not peer.docs  # nothing to replay: the node rejoins empty
        # The content subsystem's recovery audit saw an empty-handed peer:
        # nothing was dropped anywhere.
        assert system.stored_docs_by_node() == others
        assert system.content.peer_recovered(peer) == []

    def test_control_round_is_reconcile_then_heal(self):
        # One control round in a content + durability world is exactly the
        # hand sequence it replaced: same durable bytes, same holder
        # directory, same counters.
        def after(drive):
            obs.reset()
            system = make_recovery_system()
            victim = self._victim(system)
            system.power_loss(victim)
            system.sim.run()
            system.recover_node(victim)
            drive(system)
            durable = {
                node_id: encode_snapshot(
                    durable_state(peer, system.journal(node_id).flags)
                )
                for node_id, peer in system.peers.items()
            }
            counters = {
                record["name"]: record["value"]
                for record in obs.REGISTRY.snapshot()
                if record["type"] == "counter"
            }
            return durable, system.doc_holders_view(), counters

        def by_hand(system):
            system.run_reconciliation_round()
            system.run_healing_round()

        def control_round(system):
            report = system.run_control_round()
            assert list(report) == ["reconciliation", "healing"]

        assert after(control_round) == after(by_hand)

    def test_recovery_redraws_the_routes_bootstrap_drew(self):
        # Node 13 is a member of cluster 0 only, one of its 531 members
        # against an NRT capacity of 512, and knows 4 of each other cluster.
        instance, assignment, plan = build_world(scale=0.03, seed=7)
        config = P2PSystemConfig(
            seed=7,
            durability=DurabilityConfig(enabled=True),
            reliability=ReliabilityConfig(enabled=True),
        )
        workload = QueryWorkload(
            [q for q in make_query_workload(instance, 3000, seed=3)
             if q.requester_id == 13]
        )

        def recovered(crash):
            system = P2PSystem(instance, assignment, plan, config=config)
            peer = system.peers[13]
            if crash:
                system.power_loss(13)
                system.sim.run()
                system.recover_node(13)
            return system, peer, {c: peer.nrt.nodes_in(c) for c in peer.nrt.clusters()}

        system, peer, tables = recovered(crash=True)
        _, _, booted = recovered(crash=False)
        members = sorted(system.topology.members[0])
        assert peer.memberships == {0} and len(members) == 531
        shape = {cluster_id: len(table) for cluster_id, table in tables.items()}
        assert shape == {cluster_id: len(table) for cluster_id, table in booted.items()}
        assert shape == {0: 512, 1: 4, 2: 4}
        # A fresh draw, not the sorted top slice every recovered member
        # would share.
        assert tables[0] != members[-512:]
        for cluster_id, table in tables.items():
            assert set(table) <= system.topology.members[cluster_id]
        outcomes = system.run_workload(workload)
        assert len(outcomes) == 8
        assert all(outcome.succeeded for outcome in outcomes)

    def test_power_loss_keeps_partial_and_corrupt_chunks(self):
        system = make_recovery_system()
        victim = self._victim(system)
        peer = system.peer(victim)
        peer.content_state.corrupt[(1234, 0)] = True
        peer.content_state.partial.setdefault(1234, set()).add(1)
        system.power_loss(victim)
        # Disk contents survive an amnesia crash: bad bits stay bad.
        assert (1234, 0) in peer.content_state.corrupt
        assert 1 in peer.content_state.partial[1234]

    def test_power_loss_leaves_protocol_components_as_freshly_built(self):
        from repro.overlay import messages as m
        from repro.overlay.peer import MisbehaviorConfig, PeerConfig
        from repro.reliability import ReliabilityConfig
        from tests.helpers import MicroOverlay

        config = PeerConfig(
            cache_capacity=2, reliability=ReliabilityConfig(enabled=True)
        )

        def state(component):
            """``vars`` with the back-reference dropped, caches opened up."""
            return {
                name: {slot: getattr(value, slot) for slot in value.__slots__}
                if hasattr(value, "__slots__")
                else value
                for name, value in vars(component).items()
                if name != "peer"
            }

        overlay = MicroOverlay()
        for node_id in (0, 1, 2):
            overlay.add_peer(node_id, config=config)
        overlay.wire_cluster(4, [0, 1, 2], [(0, 1), (1, 2)], category_map={7: 4})
        overlay.give_document(1, 100, [7])
        peer = overlay.peers[0]
        # Dirty every protocol component: failover and loop-detection
        # state, a cached copy, a frozen gossip digest, a monitoring
        # round, and an owed transfer with a parked query.
        peer.start_query(1, 7, 1, target_doc_id=100)
        peer.queries.cache_store(DocInfo(200, (7,), 10))
        peer.membership._publish_retries[(7, 4)] = 1
        peer.arm_misbehavior(MisbehaviorConfig(stale_gossip=True))
        peer.adaptation.start_monitoring(4, round_id=1)
        peer.adaptation.handle_reassign_notice(
            m.ReassignNotice(
                category_id=8, source_cluster=0, target_cluster=4,
                move_counter=1, transfer_pairs=((1, 0), (0, 2)),
                source_docs=((0, (100,)),),
            ),
            src=1,
        )
        peer.queries.handle_query(m.QueryMessage(9, 2, 8, 1), src=2)
        dirty = [state(component) for component in peer.protocols]
        peer.handle_crash()
        peer.lose_power()
        fresh = MicroOverlay().add_peer(0, config=config)
        wiped = [state(component) for component in peer.protocols]
        assert wiped == [state(component) for component in fresh.protocols]
        assert all(before != after for before, after in zip(dirty, wiped))


class TestEpochFencing:
    def _two_peers(self, system):
        a, b = system.alive_peers()[:2]
        return a, b

    def _notice(self, category_id, target, counter, epoch):
        return ReassignNotice(
            category_id=category_id,
            source_cluster=0,
            target_cluster=target,
            move_counter=counter,
            epoch=epoch,
        )

    def test_stale_epoch_notice_is_rejected(self):
        system = make_recovery_system()
        sender, receiver = self._two_peers(system)
        category_id = 0
        entry = receiver.dcrt.entry(category_id)
        receiver.ownership_epochs[category_id] = 5
        # Stale owner: bumped counter (it kept rebalancing while
        # partitioned) but an epoch at or below the receiver's.
        for stale_epoch in (5, 4, 0):
            sender._send(
                receiver.node_id,
                "reassign_notice",
                self._notice(
                    category_id,
                    (entry.cluster_id + 1) % system.assignment.n_clusters,
                    entry.move_counter + 10,
                    stale_epoch,
                ),
            )
            system.sim.run()
            after = receiver.dcrt.entry(category_id)
            assert after.cluster_id == entry.cluster_id
            assert after.move_counter == entry.move_counter
            assert receiver.ownership_epochs[category_id] == 5

    def test_higher_epoch_notice_is_adopted_and_journaled(self):
        system = make_recovery_system()
        sender, receiver = self._two_peers(system)
        category_id = 0
        entry = receiver.dcrt.entry(category_id)
        receiver.ownership_epochs[category_id] = 5
        target = (entry.cluster_id + 1) % system.assignment.n_clusters
        sender._send(
            receiver.node_id,
            "reassign_notice",
            self._notice(category_id, target, entry.move_counter + 1, 6),
        )
        system.sim.run()
        assert receiver.dcrt.entry(category_id).cluster_id == target
        assert receiver.ownership_epochs[category_id] == 6
        state = system.journal(receiver.node_id).load()
        assert [category_id, 6] in state["epochs"]

    def test_legacy_unfenced_notices_still_merge(self):
        config = ScenarioConfig(features={"content"})  # durability off
        system = ChaosRunner(Schedule(seed=11, entries=()), config).system
        sender, receiver = self._two_peers(system)
        category_id = 0
        entry = receiver.dcrt.entry(category_id)
        target = (entry.cluster_id + 1) % system.assignment.n_clusters
        sender._send(
            receiver.node_id,
            "reassign_notice",
            self._notice(category_id, target, entry.move_counter + 1, 0),
        )
        system.sim.run()
        assert receiver.dcrt.entry(category_id).cluster_id == target


class TestReconciliation:
    def test_divergent_category_converges_to_assignment(self):
        system = make_recovery_system()
        category_id = 0
        target = int(system.assignment.category_to_cluster[category_id])
        stale = (target + 1) % system.assignment.n_clusters
        counter = int(system.assignment.move_counters[category_id]) + 1
        minority = system.alive_peers()[:5]
        for peer in minority:
            assert peer.dcrt.merge(category_id, DCRTEntry(stale, counter))
        outcome = system.run_reconciliation_round()
        assert outcome is not None and outcome["divergent"] >= 1
        assert category_id in outcome["categories"]
        final = int(system.assignment.category_to_cluster[category_id])
        for peer in system.alive_peers():
            assert peer.dcrt.entry(category_id).cluster_id == final
        # The fenced claim landed in the epoch ledger exactly once.
        claims = [c for c in system.recovery.epoch_claims() if c[0] == category_id]
        assert len(claims) == 1 and claims[0][2] == final

    def test_reconciliation_is_a_noop_when_durability_is_off(self):
        config = ScenarioConfig(features={"content"})
        system = ChaosRunner(Schedule(seed=11, entries=()), config).system
        assert system.run_reconciliation_round() is None

    def test_quiet_world_has_nothing_to_reconcile(self):
        system = make_recovery_system()
        outcome = system.run_reconciliation_round()
        assert outcome == {"divergent": 0, "categories": []}


class TestDurabilityConfig:
    def test_defaults_keep_durability_off(self):
        config = ScenarioConfig(features={"content"})
        system = ChaosRunner(Schedule(seed=11, entries=()), config).system
        assert system.recovery is None
        assert system.journal(system.alive_peers()[0].node_id) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            DurabilityConfig(enabled=True, snapshot_every=0)

    def test_config_is_frozen(self):
        config = DurabilityConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.enabled = True
