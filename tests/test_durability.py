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
import gc
import json
import os
import random
import stat
import struct
import tracemalloc
import weakref
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.chaos import InvariantChecker
from repro.chaos.harness import ChaosRunner
from repro.chaos.scenario import ScenarioConfig, Schedule
from repro.core.replication import build_world
from repro.durability import (
    DurabilityConfig,
    FileStore,
    MemoryStore,
    PeerJournal,
    StoreBodies,
    decode_snapshot,
    durable_state,
    encode_record,
    encode_snapshot,
    materialize,
    replay_wal,
)
from repro.durability import wal
from repro.model.workload import QueryWorkload, make_query_workload
from repro.overlay.messages import ReassignNotice
from repro.overlay.metadata import DCRTEntry
from repro.overlay.peer import DocInfo
from repro.overlay.system import P2PSystem, P2PSystemConfig
from repro.reliability import ReliabilityConfig

from tests.helpers import build_live_system
from tests.test_message_roundtrip import _HOSTILE
from tests.test_wire_envelope import corruptions, noise, truncations


def make_recovery_system(seed=11, **overrides):
    """The chaos harness's world with journals armed (durability on)."""
    config = ScenarioConfig(features={"recovery"}, **overrides)
    return ChaosRunner(Schedule(seed=seed, entries=()), config).system


# ----------------------------------------------------------------------
# WAL codec
# ----------------------------------------------------------------------
#: a well-formed log prefix: records of three kinds.
_VALID = [("store", 1, 10, (0,)), ("dcrt", 3, 1, 5), ("join", 4)]
#: one record of every kind.
_ONE_OF_EACH = [
    ("store", 7, 262144, (1, 2)),
    ("drop", 8),
    ("dcrt", 3, 1, 5),
    ("epoch", 3, 2),
    ("join", 4),
    ("manifest", 7, 262144, 65536, 1),
]
_INT64 = st.integers(-(2**63), 2**63 - 1)
#: any record of any kind.
_RECORDS = st.one_of(*(
    st.tuples(st.just(kind), *(
        _INT64 if field.type == "int" else st.lists(_INT64, max_size=3).map(tuple)
        for field in dataclasses.fields(cls)
    ))
    for kind, cls in wal.RECORD_TYPES.items()
))


def _frame(body: bytes) -> bytes:
    """``body`` behind a WAL header that fits it: length and crc32."""
    return struct.pack(">II", len(body), zlib.crc32(body)) + body


def _refit(data: bytearray) -> bytes:
    """``data``, one frame, with its header fixed to fit its body."""
    return _frame(bytes(data[8:]))


def _body(type_id: int, fmt: str = "", *values) -> bytes:
    return bytes([type_id]) + struct.pack(">" + fmt, *values)


def _nodes(records, offset: int) -> list[tuple[int, str]]:
    """(offset, struct format) of every value of ``records``' bodies laid
    back to back from ``offset``: type id, int64s, counts."""
    nodes = []
    for record in records:
        nodes.append((offset, "B"))
        offset += 1
        for value in record[1:]:
            if type(value) is not int:  # a tuple (or list) of categories
                nodes.append((offset, "I"))
                offset += 4
            for _ in (value,) if type(value) is int else value:
                nodes.append((offset, "q"))
                offset += 8
    return nodes


def _assert_total(data: bytes) -> None:
    """Replay returns records that re-encode to a prefix of ``data``, and
    ``decode_snapshot`` a state or None; neither raises."""
    records = replay_wal(data)
    assert data.startswith(b"".join(map(encode_record, records)))
    state = decode_snapshot(data)
    assert state is None or list(state) == list(wal.SECTIONS.values())


# The JSON codec the binary one replaced, kept as the reference it must
# materialize like: ``<crc32 hex> <json>\n`` per record, one such line
# per snapshot with a ``flags`` section the binary one no longer has.
def _json_frame(value) -> bytes:
    body = json.dumps(value, separators=(",", ":"), sort_keys=True).encode()
    return b"%08x " % zlib.crc32(body) + body + b"\n"


def _json_decode(line: bytes):
    prefix, _, body = line.partition(b" ")
    if len(prefix) != 8 or int(prefix, 16) != zlib.crc32(body):
        return None
    return json.loads(body)


def _json_replay(data: bytes) -> list[tuple]:
    records = []
    for line in data.split(b"\n")[:-1]:  # the last piece is torn or empty
        decoded = _json_decode(line)
        if decoded is None:
            break
        records.append(tuple(decoded))
    return records


class TestWalCodec:
    def test_records_roundtrip(self):
        records = [
            ("store", 7, 4096, (1, 2)),
            ("drop", 7),
            ("dcrt", 3, 1, 5),
            ("epoch", 3, 2),
        ]
        data = b"".join(encode_record(r) for r in records)
        assert replay_wal(data) == records

    def test_record_and_snapshot_bytes_are_golden(self):
        # One record of every kind and one snapshot, byte for byte: a WAL
        # on disk must replay after any change to the codec.
        golden = {
            ("store", 7, 262144, (1, 2)):
                "00000025" "15017342"  # body length 37, crc32
                "05" "0000000000000007" "0000000000040000"  # id 5, doc, size
                "00000002" "0000000000000001" "0000000000000002",
            ("drop", 8): "00000009" "ffa988df" "01" "0000000000000008",
            ("dcrt", 3, 1, 5):
                "00000019" "dd44b5c7" "00" "0000000000000003"
                "0000000000000001" "0000000000000005",
            ("epoch", 3, 2):
                "00000011" "ca503c93" "02" "0000000000000003" "0000000000000002",
            ("join", 4): "00000009" "d8e9ec72" "03" "0000000000000004",
            ("manifest", 7, 262144, 65536, 1):
                "00000021" "3007675d" "04" "0000000000000007" "0000000000040000"
                "0000000000010000" "0000000000000001",
        }
        for record, expected in golden.items():
            assert encode_record(record) == bytes.fromhex(expected)
        state = materialize(None, list(golden))
        # Sections are written in one order whatever order the dict has.
        shuffled = dict(reversed(list(state.items())))
        for spelling in (state, shuffled):
            assert encode_snapshot(spelling) == bytes.fromhex(
                "00000079" "bb574982"  # body length 121, crc32
                + golden[("dcrt", 3, 1, 5)][16:]
                + golden[("store", 7, 262144, (1, 2))][16:]
                + golden[("epoch", 3, 2)][16:]
                + golden[("manifest", 7, 262144, 65536, 1)][16:]
                + golden[("join", 4)][16:]
            )

    def test_type_ids_are_pinned(self):
        # A kind's id is its index in the sorted kinds: adding or renaming
        # a kind renumbers the ones after it, and every WAL and snapshot
        # already on disk with them.
        assert wal.TYPE_IDS == {
            "dcrt": 0, "drop": 1, "epoch": 2, "join": 3, "manifest": 4, "store": 5,
        }

    def test_torn_tail_replays_longest_valid_prefix(self):
        store = MemoryStore()
        for record in (("store", 1, 10, ()), ("store", 2, 10, ()), ("drop", 1)):
            store.append(encode_record(record))
        _, wal_bytes = store.load()
        # Tear the last record anywhere mid-frame: the first two records
        # must replay; the torn third must be ignored, not crash replay.
        last_len = len(encode_record(("drop", 1)))
        for torn in range(1, last_len):
            store2 = MemoryStore()
            store2.append(wal_bytes[: len(wal_bytes) - torn])
            _, torn_wal = store2.load()
            assert replay_wal(torn_wal) == [
                ("store", 1, 10, ()),
                ("store", 2, 10, ()),
            ]

    def test_corrupt_frame_stops_replay_at_the_damage(self):
        good = encode_record(("store", 1, 10, ()))
        bad = bytearray(encode_record(("store", 2, 10, ())))
        bad[10] ^= 0xFF  # flip a body byte: crc mismatch
        after = encode_record(("store", 3, 10, ()))
        # Everything after the damaged frame is unreachable — offsets
        # cannot be trusted past a bad crc.
        assert replay_wal(good + bytes(bad) + after) == [("store", 1, 10, ())]

    def test_materialize_of_nothing_is_the_empty_state(self):
        assert materialize(None, []) == {
            "dcrt": [], "docs": [], "epochs": [], "manifests": [], "memberships": [],
        }

    @pytest.mark.parametrize(
        "bad",
        [
            (5, ""),  # a store with no fields
            (6, "q", 1),  # the first id past the table
            (255, "q", 1),
            (5, "qq", 1, 10),  # a store cut before its count
            (5, "qqI", 1, 10, 1),  # one category declared, none there
            (5, "qqIq", 1, 10, 2**32 - 1, 0),  # a count past the body
            (3, "qB", 4, 0),  # a join with a byte left over
            (1, "qq", 1, 2),  # a drop with a field too many
            (0, "qq", 1, 2),  # a dcrt with a field too few
        ],
    )
    def test_malformed_record_ends_replay_like_a_torn_frame(self, bad):
        # Each frame's crc matches: the body itself is refused.
        store = MemoryStore()
        for record in _VALID:
            store.append(encode_record(record))
        store.append(_frame(_body(*bad)))
        store.append(encode_record(("drop", 1)))
        assert replay_wal(store.load()[1]) == _VALID
        assert PeerJournal(store).load() == materialize(None, _VALID)

    def test_json_flags_frame_is_not_replayed(self):
        # The JSON codec wrote no ``flags`` record but replayed one with
        # a NaN capacity; the binary header reads its crc digits as a
        # length past the end.
        body = b'["flags",NaN,false]'
        flags = b"%08x " % zlib.crc32(body) + body + b"\n"
        assert replay_wal(flags) == []
        store = MemoryStore()
        for record in _VALID:
            store.append(encode_record(record))
        store.append(flags)
        assert replay_wal(store.load()[1]) == _VALID
        assert PeerJournal(store).load() == materialize(None, _VALID)

    @pytest.mark.parametrize(
        "snapshot",
        [
            (_body(1, "q", 1), b"", 0),  # a drop is a change, not state
            (_body(6, "q", 1), b"", 0),  # no such type id
            (_body(3, "q", 4) + b"\x00\x00\x00", b"", 0),  # a cut record
            (_body(5, "qqIq", 1, 10, 2**32 - 1, 0), b"", 0),
            (_body(3, "q", 4), b"", 1),  # crc mismatch
            (_body(3, "q", 4), b"\x00", 0),  # a byte after the frame
        ],
    )
    def test_non_canonical_snapshot_is_discarded(self, snapshot):
        body, after, crc_error = snapshot
        header = struct.pack(">II", len(body), zlib.crc32(body) ^ crc_error)
        store = MemoryStore()
        store.write_snapshot(header + body + after)
        store.append(encode_record(("join", 4)))
        assert decode_snapshot(store.load()[0]) is None
        assert PeerJournal(store).load() == materialize(None, [("join", 4)])

    @settings(max_examples=300, deadline=None)
    @given(
        type_id=st.integers(0, 255),
        fields=st.binary(max_size=40)
        | st.lists(_INT64, max_size=5).map(lambda v: struct.pack(f">{len(v)}q", *v)),
    )
    def test_replay_is_total_over_one_arbitrary_record(self, type_id, fields):
        store = MemoryStore()
        for record in _VALID:
            store.append(encode_record(record))
        store.append(_frame(bytes([type_id]) + fields))
        records = replay_wal(store.load()[1])
        # The valid prefix always survives; the extra record is kept only
        # when its body is exactly one record of a known kind.
        assert records[:3] == _VALID and len(records) <= 4
        if len(records) == 4:
            assert encode_record(records[3]) == _frame(bytes([type_id]) + fields)
        assert PeerJournal(store).load() == materialize(None, records)

    @settings(max_examples=200, deadline=None)
    @given(
        held=st.lists(_RECORDS, max_size=8),
        records=st.lists(_RECORDS, max_size=8),
        data=st.data(),
    )
    def test_codec_materializes_like_the_json_reference(self, held, records, data):
        # A snapshot of ``held``'s state and a WAL of ``records`` torn
        # inside record ``torn`` (or whole): both codecs must recover the
        # same state, the reference's ``flags`` aside.
        torn = data.draw(st.integers(0, len(records)))
        state = materialize(None, held)
        reference = {**state, "flags": {"capacity": 0.0, "free_rider": False}}

        def log(encode):
            frames = [encode(record) for record in records]
            cut = frames[torn][:-1] if torn < len(frames) else b""
            return b"".join(frames[:torn]) + cut

        expected = materialize(
            _json_decode(_json_frame(reference).rstrip(b"\n")),
            _json_replay(log(lambda r: _json_frame(list(r)))),
        )
        # JSON read categories back as lists; the binary codec as tuples.
        expected["docs"] = [[*row[:2], tuple(row[2])] for row in expected["docs"]]
        assert materialize(
            decode_snapshot(encode_snapshot(state)), replay_wal(log(encode_record))
        ) == expected

    def test_huge_category_count_is_refused_before_anything_is_built(self):
        # 2**32 - 1 categories declared in a 40-byte frame: refused by the
        # count check, before a tuple of them is allocated.
        frame = _frame(_body(5, "qqI", 1, 10, 2**32 - 1) + bytes(11))
        assert len(frame) == 40
        tracemalloc.start()
        try:
            assert replay_wal(frame) == []
            assert decode_snapshot(frame) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        with pytest.raises(ValueError, match="declares 4294967295 items in 11"):
            wal._read(frame[8:], 0)


#: what the WAL fuzzers start from: one frame of every record kind, a
#: log of all six, and the snapshot they materialize to.
_FUZZ_FRAMES = {
    **{record[0]: encode_record(record) for record in _ONE_OF_EACH},
    "wal": b"".join(map(encode_record, _ONE_OF_EACH)),
    "snapshot": encode_snapshot(materialize(None, _ONE_OF_EACH)),
}


@pytest.mark.parametrize("name", _FUZZ_FRAMES)
def test_fuzz_wal_truncations(name):
    for data in truncations(_FUZZ_FRAMES[name], refit=_refit, header=8):
        _assert_total(data)


@pytest.mark.parametrize("name", _FUZZ_FRAMES)
def test_fuzz_wal_corruptions(name):
    for data in corruptions(_FUZZ_FRAMES[name], random.Random(0xC0DEC)):
        _assert_total(data)
        # The same damage behind a matching crc reaches the decoders.
        if len(data) > 8:
            _assert_total(_refit(bytearray(data)))


def test_fuzz_wal_random_noise():
    for data in noise(random.Random(0xBADF00D)):
        _assert_total(data)
        _assert_total(_frame(data))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fuzz_one_field_of_a_valid_record_or_snapshot(data):
    # Byte-level fuzzing rarely keeps a body's counts consistent; this
    # overwrites one value of a valid record or snapshot — a type id, an
    # int64, a count — with any value of its width, and fixes the crc.
    records = data.draw(st.lists(_RECORDS, min_size=1, max_size=4))
    if data.draw(st.booleans()):
        frame = bytearray(encode_record(records[0]))
        nodes = _nodes(records[:1], 8)
    else:
        state = materialize(None, records)
        frame = bytearray(encode_snapshot(state))
        nodes = _nodes(wal.state_records(state), 8)
    if not nodes:
        return  # a snapshot of the empty state has no body
    offset, fmt = data.draw(st.sampled_from(nodes))
    struct.pack_into(">" + fmt, frame, offset, data.draw(_HOSTILE[fmt]))
    _assert_total(_refit(frame))


#: ``store`` rows over few doc ids, sizes and categories, so that states
#: drawn one after another reuse a doc id with another size or category
#: tuple; one to three categories, or none.
_STORE_ROWS = st.tuples(
    st.just("store"),
    st.integers(0, 5),
    st.sampled_from([10, 4096, 2**40]),
    st.lists(st.integers(0, 3), max_size=3).map(tuple),
)


class TestStoreBodies:
    @settings(max_examples=200, deadline=None)
    @given(
        states=st.lists(
            st.tuples(
                st.lists(_STORE_ROWS, max_size=6),
                st.lists(_RECORDS.filter(lambda r: r[0] != "store"), max_size=4),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_cached_bytes_are_the_generators_bytes(self, states):
        # One cache over several states, as a world's journals share one:
        # every snapshot encodes as it does uncached and decodes back.
        bodies, rows = StoreBodies(), set()
        for stores, others in states:
            state = materialize(None, stores + others)
            frame = encode_snapshot(state, bodies)
            assert frame == encode_snapshot(state)
            assert decode_snapshot(frame) == state
            rows.update(map(tuple, state["docs"]))
        # Each distinct row was encoded once.
        assert len(bodies) == len(rows)

    def test_a_changed_row_is_encoded_again(self):
        bodies = StoreBodies()
        for row in ((1, 10, (0,)), (1, 10, (0, 2)), (1, 11, (0,)), (1, 10, (0,))):
            state = materialize(None, [("store", *row)])
            assert encode_snapshot(state, bodies) == encode_snapshot(state)
        assert len(bodies) == 3
        # Categories spelled as a list are the same row as the tuple.
        state = {**materialize(None, []), "docs": [[1, 10, [0]]]}
        assert encode_snapshot(state, bodies) == encode_snapshot(state)
        assert len(bodies) == 3

    def test_each_world_owns_its_cache(self):
        first, second = make_recovery_system(), make_recovery_system()
        assert first.recovery.bodies is not second.recovery.bodies
        for system in (first, second):
            assert all(
                system.journal(node_id).bodies is system.recovery.bodies
                for node_id in system.peers
            )
        # A build encodes no baseline; reading every journal encodes one
        # body per document held, however many copies there are.
        held = {d for peer in first.peers.values() for d in peer.docs}
        copies = sum(len(peer.docs) for peer in first.peers.values())
        for system in (first, second):
            assert len(system.recovery.bodies) == 0
            for node_id in system.peers:
                system.journal(node_id).load()
            assert len(system.recovery.bodies) == len(held) < copies
        freed = weakref.ref(first.recovery.bodies)
        del first
        gc.collect()
        assert freed() is None
        assert len(second.recovery.bodies) == len(held)

    def test_a_journal_without_a_world_keeps_its_own(self):
        assert PeerJournal(MemoryStore()).bodies is not PeerJournal(MemoryStore()).bodies

    def test_a_journal_reads_its_store_once_and_replays_only_state(
        self, monkeypatch
    ):
        from repro.durability import journal as journal_module

        replayed, loads = [], []
        materialize_ = journal_module.materialize
        monkeypatch.setattr(
            journal_module, "materialize",
            lambda *args: replayed.append(1) or materialize_(*args),
        )

        class CountingStore(MemoryStore):
            def load(self):
                loads.append(1)
                return super().load()

        assert PeerJournal(CountingStore()).durable_doc_ids() == frozenset()
        assert replayed == [] and loads == [1]
        store = CountingStore()
        store.append(encode_record(("store", 4, 16, (1,))))
        loads.clear()
        assert PeerJournal(store).durable_doc_ids() == frozenset({4})
        assert replayed == [1] and loads == [1]


# ----------------------------------------------------------------------
# stores
# ----------------------------------------------------------------------
class TestFileStore:
    def test_roundtrips_like_memory_store(self, tmp_path):
        mem, disk = MemoryStore(), FileStore(tmp_path / "node-0")
        for store in (mem, disk):
            store.append(encode_record(("store", 1, 10, ())))
            store.write_snapshot(encode_snapshot(materialize(None, [])))
            store.append(encode_record(("store", 2, 10, ())))
        assert mem.load() == disk.load()
        disk.close()

    def test_snapshot_truncates_wal(self, tmp_path):
        store = FileStore(tmp_path / "node-1")
        store.append(encode_record(("store", 1, 10, ())))
        store.write_snapshot(encode_snapshot(materialize(None, [])))
        snapshot, wal = store.load()
        assert snapshot is not None
        assert wal == b""
        store.close()

    def test_torn_file_tail_replays_longest_valid_prefix(self, tmp_path):
        store = FileStore(tmp_path / "node-2")
        store.append(encode_record(("store", 1, 10, ())))
        store.append(encode_record(("store", 2, 10, ())))
        store.close()
        raw = store.wal_path.read_bytes()
        store.wal_path.write_bytes(raw[:-3])  # torn mid-final-record
        _, wal = store.load()
        assert replay_wal(wal) == [("store", 1, 10, ())]

    def test_a_journals_baseline_is_on_disk_when_it_is_attached(self, tmp_path):
        # A live SIGKILL right after attach must find the baseline: a
        # FileStore encodes the unencoded first snapshot at once.
        _instance, system = build_live_system()
        peer = system.alive_peers()[0]
        journal = PeerJournal(FileStore(tmp_path / "node-4"))
        peer.attach_journal(journal)
        assert journal.records_written == 0
        assert journal.store.snapshot_path.is_file()
        assert journal.store.load() == (encode_snapshot(durable_state(peer)), b"")
        journal.store.close()

    def test_snapshot_rename_is_durable_before_the_wal_is_truncated(
        self, tmp_path, monkeypatch
    ):
        # ``os.replace`` is durable only once its directory is fsync'd: a
        # power loss before that may keep the WAL's truncation and lose
        # the rename, and with it every acknowledged record.
        store = FileStore(tmp_path / "node-3")
        store.append(encode_record(("store", 1, 10, ())))
        snapshot = encode_snapshot(materialize(None, [("store", 1, 10, ())]))
        fsync, synced = os.fsync, []

        def recording_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                synced.append((
                    store.snapshot_path.read_bytes() == snapshot,
                    store.wal_path.stat().st_size,
                ))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        store.write_snapshot(snapshot)
        store.close()
        # Once, with the new snapshot in place and the WAL still whole.
        assert synced == [(True, len(encode_record(("store", 1, 10, ()))))]


# ----------------------------------------------------------------------
# journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_auto_compaction_consults_snapshot_fn(self):
        journal = PeerJournal(
            MemoryStore(), DurabilityConfig(enabled=True, snapshot_every=4)
        )
        state = materialize(None, [])
        state["docs"] = [[9, 16, [1]]]
        journal.snapshot_fn = lambda: state
        for i in range(10):
            journal.record("dcrt", i, 0, 1)
        assert journal.snapshots_written >= 2
        assert journal.load()["docs"] == [[9, 16, (1,)]]

    def test_durable_doc_ids_track_store_and_drop(self):
        journal = PeerJournal(MemoryStore(), DurabilityConfig(enabled=True))
        journal.record("store", 1, 10, [0])
        journal.record("store", 2, 10, [0])
        journal.record("drop", 1)
        assert journal.durable_doc_ids() == frozenset({2})

    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["store", "drop", "compact", "reopen"]),
                st.integers(0, 7),
            ),
            max_size=40,
        ),
        first_read=st.integers(0, 40),
        snapshot_every=st.integers(1, 8),
    )
    def test_durable_view_built_on_first_read_matches_the_log(
        self, ops, first_read, snapshot_every
    ):
        # From its first read on, at every step, the view is what the
        # store replays to, however the stores, drops, compactions
        # (explicit or every ``snapshot_every`` records) and reopenings
        # over a store that holds data fell before and after that read.
        store, held = MemoryStore(), set()
        config = DurabilityConfig(enabled=True, snapshot_every=snapshot_every)

        def open_journal():
            journal = PeerJournal(store, config)
            journal.snapshot_fn = lambda: materialize(
                None, [("store", doc_id, 10, (0,)) for doc_id in sorted(held)]
            )
            return journal

        journal = open_journal()
        for step, (op, doc_id) in enumerate(ops):
            if op == "store":
                held.add(doc_id)
                journal.record("store", doc_id, 10, (0,))
            elif op == "drop":
                held.discard(doc_id)
                journal.record("drop", doc_id)
            elif op == "compact":
                journal.compact()
            else:
                journal = open_journal()
            if step >= first_read:
                logged = {row[0] for row in journal.load()["docs"]}
                assert journal.durable_doc_ids() == logged == held
        logged = {row[0] for row in journal.load()["docs"]}
        assert journal.durable_doc_ids() == logged == held


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
            live = encode_snapshot(durable_state(peer))
            assert persisted == live

    @pytest.mark.parametrize("k", [0, 1, 7])
    def test_power_loss_recovers_the_attach_state_and_k_records(self, k):
        # The baseline reaches the store unencoded; a power loss before
        # anything reads it, after k < snapshot_every records, recovers
        # the state at attach with those k records replayed over it.
        durability = DurabilityConfig(enabled=True, snapshot_every=8)
        _instance, system = build_live_system(
            config=P2PSystemConfig(durability=durability)
        )
        peer = system.peer(self._victim(system))
        journal = system.journal(peer.node_id)
        at_attach = durable_state(peer)
        assert (journal.records_written, journal.snapshots_written) == (0, 1)
        held = sorted(peer.docs)
        records = []
        for i in range(k):
            if i % 2:
                peer.drop_document(held[i])
                records.append(("drop", held[i]))
            else:
                peer.store_document(DocInfo(10**9 + i, (0,), 64))
                records.append(("store", 10**9 + i, 64, (0,)))
        assert journal.snapshots_written == 1
        assert len(system.recovery.bodies) == 0  # nothing encoded yet
        system.power_loss(peer.node_id)
        system.sim.run()
        system.recover_node(peer.node_id)
        expected = encode_snapshot(materialize(at_attach, records))
        assert encode_snapshot(journal.load()) == expected
        assert encode_snapshot(durable_state(peer)) == expected

    def test_a_readmitted_node_ids_journal_is_overwritten_not_replayed(self):
        _instance, system = build_live_system(
            config=P2PSystemConfig(durability=DurabilityConfig(enabled=True))
        )
        node_id = self._victim(system)
        journal = system.journal(node_id)
        stale = set(system.peer(node_id).docs)
        system.power_loss(node_id)
        system.sim.run()
        brought = DocInfo(10**9, (0,), 64)
        peer = system.join_node(node_id, 1.0, [brought])
        assert system.journal(node_id) is journal
        durable = {row[0] for row in journal.load()["docs"]}
        assert brought.doc_id in durable and not durable & stale
        assert encode_snapshot(journal.load()) == encode_snapshot(durable_state(peer))
        system.power_loss(node_id)
        system.sim.run()
        system.recover_node(node_id)
        assert brought.doc_id in peer.docs and not set(peer.docs) & stale

    def test_a_write_lost_before_the_first_durable_read_is_detected(self):
        # The first read of a journal comes after a document went from the
        # peer behind its back: the unencoded baseline is the state at
        # attach, not the live one, so the loss still shows.
        _instance, system = build_live_system(
            scale=0.02,
            seed=61,
            config=P2PSystemConfig(
                seed=61, durability=DurabilityConfig(enabled=True)
            ),
        )
        peer = system.alive_peers()[0]
        lost = min(peer.docs)
        del peer.docs[lost]
        assert len(system.recovery.bodies) == 0
        checker = InvariantChecker(system)
        checker.check("no-acknowledged-write-loss")
        checker.check("recovery-convergence", node_id=peer.node_id)
        assert checker.violated_invariants == {
            "no-acknowledged-write-loss", "recovery-convergence"
        }
        assert all(f"sample: [{lost}]" in v.detail for v in checker.violations)

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
        assert encode_snapshot(durable_state(peer)) == encode_snapshot(journal.load())

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
                node_id: encode_snapshot(durable_state(peer))
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
        from repro.overlay.peer import PeerConfig
        from repro.reliability import ReliabilityConfig
        from tests.helpers import MicroOverlay

        config = PeerConfig(
            cache_capacity=2, reliability=ReliabilityConfig(enabled=True)
        )

        def slots(obj):
            return {name: getattr(obj, name) for name in obj.__slots__}

        def state(component):
            """Every slot but the back-reference, caches opened up."""
            return {
                name: slots(value) if hasattr(value, "__slots__") else value
                for name, value in slots(component).items()
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
        peer.membership.freeze_gossip_digest()
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
