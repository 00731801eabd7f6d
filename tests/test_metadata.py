"""Tests for repro.overlay.metadata — the Figure 1 data structures."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.harness import ChaosRunner
from repro.chaos.scenario import ScenarioConfig, Schedule
from repro.core.replication import build_world
from repro.overlay import metadata
from repro.overlay.metadata import (
    DCRT, DCRTEntry, NRT, CapabilityTable, DocumentTable, weighted_index,
)
from repro.overlay import peer as peer_module
from repro.overlay.peer import DocInfo
from repro.overlay.query_protocol import _QueryAttempt
from repro.overlay.system import P2PSystem

from tests.helpers import MicroOverlay, build_live_system, patch_method


def _info(doc_id, *categories):
    return DocInfo(doc_id=doc_id, categories=categories, size_bytes=100)


class TestDocumentTable:
    """The DT reads through a peer's ``docs`` (doc id -> DocInfo)."""

    def test_add_and_lookup(self):
        docs = {}
        dt = DocumentTable(docs)
        docs[1] = _info(1, 3, 4)
        assert dt.has_document(1)
        assert dt.categories_of(1) == (3, 4)
        assert len(dt) == 1

    def test_remove(self):
        docs = {1: _info(1, 3)}
        dt = DocumentTable(docs)
        del docs[1]
        assert not dt.has_document(1)
        assert dt.categories_of(1) == ()
        assert len(dt) == 0

    def test_has_category(self):
        dt = DocumentTable({1: _info(1, 3)})
        assert dt.has_category(3)
        assert not dt.has_category(4)

    def test_docs_in_category(self):
        dt = DocumentTable({5: _info(5, 4), 1: _info(1, 3), 2: _info(2, 3, 4)})
        # In storage order, as the DT dict kept them.
        assert dt.docs_in_category(3) == [1, 2]
        assert dt.docs_in_category(4) == [5, 2]
        assert dt.doc_ids() == [5, 1, 2]

    def test_docs_in_category_stops_at_its_limit(self):
        class Scanned(dict):
            """A docs dict that counts the rows a scan reads."""

            read = 0

            def items(self):
                for item in super().items():
                    self.read += 1
                    yield item

        docs = Scanned({d: _info(d, 3 if d % 2 else 4) for d in range(64)})
        dt = DocumentTable(docs)
        every = dt.docs_in_category(3)
        assert len(every) == 32 and docs.read == 64
        for limit in (1, 3, 32, 40):
            docs.read = 0
            assert dt.docs_in_category(3, limit) == every[:limit]
            assert docs.read == (2 * limit if limit < 32 else 64)
        assert dt.docs_in_category(3, 0) == dt.docs_in_category(3, -2) == []

    def test_rejects_empty_categories(self):
        peer = MicroOverlay().add_peer(0)
        with pytest.raises(ValueError):
            peer.store_document(_info(1))
        assert not peer.docs and not peer.dt.has_document(1)

    def test_bootstrap_rejects_empty_categories(self):
        instance, assignment, plan = build_world(scale=0.01, seed=31)
        doc = next(iter(instance.documents.values()))
        object.__setattr__(doc, "categories", ())
        with pytest.raises(ValueError):
            P2PSystem(instance, assignment, plan=plan)


def _assert_dt_is_docs(peer, categories):
    """Every DT reader answers what ``peer.docs`` says, in its order."""
    docs, dt = peer.docs, peer.dt
    assert dt.doc_ids() == list(docs)
    assert len(dt) == len(docs)
    for doc_id, info in docs.items():
        assert dt.has_document(doc_id)
        assert dt.categories_of(doc_id) == info.categories
    absent = max(docs, default=0) + 1
    assert not dt.has_document(absent) and dt.categories_of(absent) == ()
    for category_id in categories:
        expected = [d for d, info in docs.items() if category_id in info.categories]
        assert dt.docs_in_category(category_id) == expected
        assert dt.has_category(category_id) == bool(expected)


class TestDocumentTableView:
    def test_readers_follow_store_drop_power_loss_and_restore(self):
        config = ScenarioConfig(features={"recovery"})
        system = ChaosRunner(Schedule(seed=11, entries=()), config).system
        categories = range(system.n_categories + 1)
        peer = max(system.alive_peers(), key=lambda p: len(p.docs))
        _assert_dt_is_docs(peer, categories)

        first, *_ = peer.docs
        peer.drop_document(first)
        _assert_dt_is_docs(peer, categories)
        peer.store_document(_info(first, 0, system.n_categories - 1))
        _assert_dt_is_docs(peer, categories)
        held = dict(peer.docs)

        system.power_loss(peer.node_id)
        assert len(peer.dt) == 0
        _assert_dt_is_docs(peer, categories)
        system.sim.run()
        system.recover_node(peer.node_id)
        assert peer.docs == held
        _assert_dt_is_docs(peer, categories)


class TestDCRT:
    def test_default_cluster_zero(self):
        # Section 6.2 step 3: zero-document categories map to cluster 0.
        dcrt = DCRT()
        assert dcrt.cluster_of(17) == 0
        assert dcrt.entry(17) == DCRTEntry(0, 0)

    def test_set_and_lookup(self):
        dcrt = DCRT()
        dcrt.set(3, cluster_id=5, move_counter=2)
        assert dcrt.cluster_of(3) == 5
        assert dcrt.entry(3).move_counter == 2

    def test_merge_higher_counter_wins(self):
        dcrt = DCRT()
        dcrt.set(3, 5, move_counter=2)
        assert dcrt.merge(3, DCRTEntry(7, 3))
        assert dcrt.cluster_of(3) == 7

    def test_merge_lower_counter_loses(self):
        # The Section 6.1.2 conflict rule: "the metadata information with
        # the highest move counter value is kept".
        dcrt = DCRT()
        dcrt.set(3, 7, move_counter=3)
        assert not dcrt.merge(3, DCRTEntry(5, 2))
        assert dcrt.cluster_of(3) == 7

    def test_merge_equal_counter_keeps_existing(self):
        dcrt = DCRT()
        dcrt.set(3, 7, move_counter=3)
        assert not dcrt.merge(3, DCRTEntry(9, 3))
        assert dcrt.cluster_of(3) == 7

    def test_merge_into_empty(self):
        dcrt = DCRT()
        assert dcrt.merge(3, DCRTEntry(2, 0))
        assert dcrt.cluster_of(3) == 2

    def test_snapshot_merge_roundtrip(self):
        a = DCRT()
        a.set(1, 4, 1)
        a.set(2, 5, 2)
        b = DCRT()
        changed = b.merge_snapshot(a.snapshot())
        assert changed == 2
        assert b.cluster_of(1) == 4
        assert b.cluster_of(2) == 5
        # Second merge is a no-op.
        assert b.merge_snapshot(a.snapshot()) == 0

    def test_out_of_order_delivery_converges(self):
        """Conflicting updates applied in any order give the same result."""
        updates = [(3, DCRTEntry(5, 1)), (3, DCRTEntry(8, 3)), (3, DCRTEntry(6, 2))]
        import itertools

        for permutation in itertools.permutations(updates):
            dcrt = DCRT()
            for category_id, entry in permutation:
                dcrt.merge(category_id, entry)
            assert dcrt.cluster_of(3) == 8

    def test_categories_listing(self):
        dcrt = DCRT()
        dcrt.set(5, 1)
        dcrt.set(2, 1)
        assert dcrt.categories() == [2, 5]
        assert len(dcrt) == 2


class TestDCRTSharing:
    """Bootstrap shares one DCRT; a peer copies it on its first change."""

    def test_bootstrap_shares_one_table(self):
        _, system = build_live_system(scale=0.01)
        tables = {id(peer.dcrt._entries) for peer in system.peers.values()}
        assert len(tables) == 1
        assert len(next(iter(system.peers.values())).dcrt) == system.n_categories

    def test_a_changing_merge_privatises_only_that_peer(self):
        _, system = build_live_system(scale=0.01)
        first, *others = system.peers.values()
        shared = first.dcrt._entries
        before = dict(shared)
        current = first.dcrt.entry(3)
        moved = DCRTEntry(current.cluster_id + 1, current.move_counter + 1)
        assert first.dcrt.merge(3, moved)
        assert first.dcrt._entries is not shared
        assert first.dcrt.entry(3) == moved
        assert shared == before
        assert all(peer.dcrt._entries is shared for peer in others)
        assert all(peer.dcrt.entry(3) == current for peer in others)

    def test_a_merge_that_changes_nothing_does_not_copy(self):
        shared = {3: DCRTEntry(1, 2)}
        dcrt = DCRT()
        dcrt.share(shared)
        assert not dcrt.merge(3, DCRTEntry(5, 2))
        assert not dcrt.merge(3, DCRTEntry(5, 1))
        assert dcrt.merge_snapshot({3: DCRTEntry(1, 2)}) == 0
        dcrt.set(3, 1, 2)
        assert dcrt._entries is shared
        dcrt.set(3, 1, 3)
        assert dcrt._entries is not shared
        assert shared == {3: DCRTEntry(1, 2)}

    def test_on_change_fires_for_every_change(self):
        shared = {1: DCRTEntry(0, 0), 2: DCRTEntry(1, 4)}
        seen = []
        dcrt = DCRT(on_change=lambda *change: seen.append(change))
        dcrt.share(shared)
        assert seen == list(shared.items())
        seen.clear()
        dcrt.merge(2, DCRTEntry(0, 4))  # equal counter: no change
        dcrt.merge(1, DCRTEntry(2, 1))
        dcrt.merge(7, DCRTEntry(1, 0))
        dcrt.set(2, 0, 9)
        assert seen == [(1, DCRTEntry(2, 1)), (7, DCRTEntry(1, 0)), (2, DCRTEntry(0, 9))]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(0, 4),
                st.integers(0, 3),
                st.integers(0, 5),
            ),
            max_size=12,
        )
    )
    def test_shared_table_answers_as_a_private_copy_would(self, ops):
        shared = {c: DCRTEntry(c % 2, 2) for c in range(4)}
        before = dict(shared)
        sharing, private = DCRT(), DCRT(dict(shared))
        sharing.share(shared)
        for is_merge, category_id, cluster_id, counter in ops:
            if is_merge:
                entry = DCRTEntry(cluster_id, counter)
                assert sharing.merge(category_id, entry) == private.merge(
                    category_id, entry
                )
            else:
                sharing.set(category_id, cluster_id, counter)
                private.set(category_id, cluster_id, counter)
            assert sharing.items() == private.items()
        assert shared == before
        if private.items() != sorted(before.items()):
            assert sharing._entries is not shared


class TestNRT:
    def test_add_and_list(self):
        nrt = NRT()
        nrt.add(1, 10)
        nrt.add(1, 11)
        assert nrt.nodes_in(1) == [10, 11]
        assert 1 in nrt

    def test_lru_eviction(self):
        # Section 6.2: "an LRU replacement algorithm can be adopted".
        nrt = NRT(max_nodes_per_cluster=2)
        nrt.add(1, 10)
        nrt.add(1, 11)
        nrt.add(1, 12)
        assert nrt.nodes_in(1) == [11, 12]

    def test_touch_refreshes_recency(self):
        nrt = NRT(max_nodes_per_cluster=2)
        nrt.add(1, 10)
        nrt.add(1, 11)
        nrt.add(1, 10)  # refresh 10
        nrt.add(1, 12)  # evicts 11, not 10
        assert nrt.nodes_in(1) == [10, 12]

    def test_remove_node_everywhere(self):
        nrt = NRT()
        nrt.add(1, 10)
        nrt.add(2, 10)
        nrt.add(2, 11)
        nrt.remove_node(10)
        assert nrt.nodes_in(1) == []
        assert nrt.nodes_in(2) == [11]

    @staticmethod
    def _uniform_picks(weights):
        """2,000 draws from ten members; asserts they are uniform and cost
        one ``rng.random()`` each (the first trial is accepted)."""
        nrt = NRT()
        nrt.add_many(1, range(10))
        rng = np.random.default_rng(0)
        picks = [nrt.random_node(1, rng, weights) for _ in range(2000)]
        counts = np.bincount(picks, minlength=10)
        assert counts.min() > 120  # expected 200 each
        replay = np.random.default_rng(0)
        for _ in range(2000):
            replay.random()
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_random_node_uniformish(self):
        """A table where every member has one unit draws uniformly."""
        self._uniform_picks(CapabilityTable(dict.fromkeys(range(10), 1.0)))

    def test_random_node_without_a_table_is_uniform(self):
        self._uniform_picks(None)

    def test_random_node_empty(self):
        nrt = NRT()
        assert nrt.random_node(9, np.random.default_rng(0), None) is None

    def test_clusters_listing(self):
        nrt = NRT()
        nrt.add(3, 1)
        nrt.add(1, 1)
        assert nrt.clusters() == [1, 3]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            NRT(max_nodes_per_cluster=0)


def _pick_counts(weights, exclude=(), draws=30_000, members=range(10)):
    nrt = NRT()
    nrt.add_many(1, members)
    rng = np.random.default_rng(3)
    picks = [nrt.random_node(1, rng, weights, exclude) for _ in range(draws)]
    return np.bincount(picks, minlength=10)


class TestWeightedDraw:
    """Members are drawn in proportion to their advertised capacity."""

    def test_a_five_unit_member_is_drawn_five_times_as_often(self):
        weights = CapabilityTable({n: 5.0 if n < 5 else 1.0 for n in range(10)})
        counts = _pick_counts(weights)
        # Expected 5,000 for each 5-unit member, 1,000 for each 1-unit one.
        ratio = counts[:5].sum() / counts[5:].sum()
        assert 4.6 < ratio < 5.4
        assert counts[:5].min() > 4_600 and counts[5:].max() < 1_150

    def test_an_unknown_member_counts_as_one_unit(self):
        named = CapabilityTable({0: 3.0})
        spelled_out = CapabilityTable({n: 3.0 if n == 0 else 1.0 for n in range(10)})
        assert list(_pick_counts(named)) == list(_pick_counts(spelled_out))
        counts = _pick_counts(named)
        assert 2.6 < counts[0] / counts[1:].mean() < 3.4

    def test_exclude_is_never_drawn_and_weights_hold_among_the_rest(self):
        weights = CapabilityTable({0: 5.0, 1: 5.0, 2: 5.0})
        counts = _pick_counts(weights, exclude={0, 3, 4, 5, 6, 7, 8})
        assert counts[[0, 3, 4, 5, 6, 7, 8]].sum() == 0
        assert 4.5 < counts[1] / counts[9] < 5.5
        assert 4.5 < counts[2] / counts[9] < 5.5

    def test_excluding_everyone_draws_nothing(self):
        nrt = NRT()
        nrt.add_many(1, [4, 5])
        rng = np.random.default_rng(0)
        assert nrt.random_node(1, rng, CapabilityTable({4: 2.0}), {4, 5}) is None

    def test_the_drawn_member_becomes_most_recently_used(self):
        nrt = NRT()
        nrt.add_many(1, range(5))
        choice = nrt.random_node(1, np.random.default_rng(1), CapabilityTable({}))
        assert nrt.nodes_in(1)[-1] == choice
        assert sorted(nrt.nodes_in(1)) == list(range(5))

    def test_after_too_many_rejections_a_scan_draws_the_same_distribution(
        self, monkeypatch
    ):
        monkeypatch.setattr(metadata, "_MAX_TRIALS", 0)
        weights = CapabilityTable({n: 4.0 if n % 2 else 1.0 for n in range(10)})
        rng = np.random.default_rng(5)
        candidates = list(range(10))
        picks = [weighted_index(candidates, weights, rng) for _ in range(30_000)]
        counts = np.bincount(picks, minlength=10)
        assert 3.6 < counts[1::2].sum() / counts[::2].sum() < 4.4
        # A table of vanishing capacities costs one scan, not a spin.
        monkeypatch.setattr(metadata, "_MAX_TRIALS", 64)
        tiny = CapabilityTable({n: 1e-300 for n in range(10)})
        assert 0 <= weighted_index(candidates, tiny, rng) < 10


class TestCapabilityTable:
    def test_peak_follows_writes(self):
        table = CapabilityTable({1: 2.0, 2: 4.0})
        assert table.peak == 4.0
        table[3] = 5.0
        assert table.peak == 5.0
        table[3] = 3.0  # the peak member went down
        assert table.peak == 4.0
        del table[2]
        assert table.peak == 3.0
        del table[1], table[3]
        assert table.peak == 1.0  # an unnamed member's one unit

    def test_peak_is_never_below_one_unit(self):
        assert CapabilityTable({1: 0.5}).peak == 1.0
        assert CapabilityTable({}).peak == 1.0

    def test_a_shared_table_refuses_writes(self):
        table = CapabilityTable({1: 2.0})
        table.shared = True
        with pytest.raises(TypeError):
            table[1] = 3.0
        with pytest.raises(TypeError):
            del table[1]
        assert dict(table) == {1: 2.0}

    @pytest.mark.parametrize(
        "write",
        [
            lambda t: t.update({1: 9.0}),
            lambda t: t.pop(1),
            lambda t: t.popitem(),
            lambda t: t.setdefault(2, 9.0),
            lambda t: t.clear(),
        ],
    )
    def test_writes_other_than_by_item_are_refused(self, write):
        table = CapabilityTable({1: 2.0})
        with pytest.raises(TypeError):
            write(table)
        assert dict(table) == {1: 2.0} and table.peak == 2.0


class TestDispatchRelaxation:
    """``_try_query`` excludes tried nodes and suspects, then relaxes the
    exclusions in order: tried first, then suspects."""

    @pytest.mark.parametrize(
        "tried, suspects, allowed",
        [
            ({1}, {2}, {3}),
            ({1, 3}, {2}, {1, 3}),
            ({1, 3}, {1, 2, 3}, {1, 2, 3}),
        ],
    )
    def test_order(self, tried, suspects, allowed, monkeypatch):
        overlay = MicroOverlay()
        requester = overlay.add_peer(0)
        for node_id in (1, 2, 3):
            overlay.add_peer(node_id, capacity=float(node_id))
        overlay.wire_cluster(5, [1, 2, 3], edges=[(1, 2), (2, 3)])
        requester.nrt.add_many(5, [1, 2, 3])
        requester.known_capabilities[5] = CapabilityTable({1: 1.0, 2: 5.0, 3: 1.0})
        requester.dcrt.set(7, 5)
        sent = []
        patch_method(monkeypatch, requester, "suspects", lambda: set(suspects))
        patch_method(
            monkeypatch, requester, "_send",
            lambda dst, kind, payload, **_: sent.append(dst),
        )
        for query_id in range(200):
            state = _QueryAttempt(query_id, 7, 1, -1, tried=set(tried))
            requester.queries._try_query(state)
        assert set(sent) == allowed


class OrderedDictNRT:
    """The NRT as it was: one ``OrderedDict[int, None]`` per cluster.

    Kept verbatim as the oracle the list-backed :class:`NRT` must equal in
    contents, order and RNG draws.
    """

    def __init__(self, max_nodes_per_cluster: int = 64) -> None:
        if max_nodes_per_cluster < 1:
            raise ValueError(
                f"max_nodes_per_cluster must be >= 1, got {max_nodes_per_cluster}"
            )
        self.max_nodes_per_cluster = max_nodes_per_cluster
        self._clusters: dict[int, OrderedDict[int, None]] = {}

    def add(self, cluster_id: int, node_id: int) -> None:
        """Record that ``node_id`` belongs to ``cluster_id`` (refreshes LRU)."""
        members = self._clusters.setdefault(cluster_id, OrderedDict())
        if node_id in members:
            members.move_to_end(node_id)
        else:
            members[node_id] = None
            while len(members) > self.max_nodes_per_cluster:
                members.popitem(last=False)

    def add_many(self, cluster_id: int, node_ids) -> None:
        """:meth:`add` every id in order, trimming once at the end.

        An LRU's final state is "order by last touch, keep the last
        ``max_nodes_per_cluster``", so the batch may defer the eviction —
        and an empty table filled from distinct ids is those ids in order.
        """
        node_ids = list(node_ids)
        if not node_ids:
            return
        members = self._clusters.get(cluster_id)
        if not members:
            members = self._clusters[cluster_id] = OrderedDict.fromkeys(node_ids)
            if len(members) != len(node_ids):
                # Repeats: ``fromkeys`` orders by first touch, an LRU by last.
                for node_id in node_ids:
                    members.move_to_end(node_id)
        else:
            for node_id in node_ids:
                if node_id in members:
                    members.move_to_end(node_id)
                else:
                    members[node_id] = None
        while len(members) > self.max_nodes_per_cluster:
            members.popitem(last=False)

    def remove_node(self, node_id: int) -> None:
        """Remove a node from every cluster (on a leave notice)."""
        for members in self._clusters.values():
            members.pop(node_id, None)

    def nodes_in(self, cluster_id: int) -> list[int]:
        members = self._clusters.get(cluster_id)
        return list(members) if members is not None else []

    def random_node(self, cluster_id: int, rng, weights, exclude=()) -> int | None:
        """Pick a known member of ``cluster_id`` in proportion to its weight.

        ``weights`` is a plain dict (or None), read afresh: the bound is
        its maximum at the time of the draw, and an unnamed member weighs
        one unit.  ``exclude`` removes candidates before the draw.
        """
        members = self._clusters.get(cluster_id)
        if not members:
            return None
        node_ids = [node_id for node_id in members if node_id not in exclude]
        if not node_ids:
            return None
        weights = weights or {}
        bound = max([1.0, *weights.values()])
        for _ in range(metadata._MAX_TRIALS):
            position = rng.random() * len(node_ids)
            index = int(position)
            if (position - index) * bound < weights.get(node_ids[index], 1.0):
                break
        else:
            total = sum(weights.get(node_id, 1.0) for node_id in node_ids)
            target, index = rng.random() * total, 0
            while target >= weights.get(node_ids[index], 1.0):
                target -= weights.get(node_ids[index], 1.0)
                index += 1
        choice = node_ids[index]
        members.move_to_end(choice)
        return choice

    def clusters(self) -> list[int]:
        return sorted(self._clusters)

    def __contains__(self, cluster_id: int) -> bool:
        return bool(self._clusters.get(cluster_id))


_node = st.integers(0, 11)
_cluster = st.integers(0, 2)
_nrt_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _cluster, _node),
        st.tuples(st.just("add_many"), _cluster, st.lists(_node, max_size=12)),
        st.tuples(st.just("remove_node"), _node),
        # An empty frozenset is the plain call without ``exclude``.
        st.tuples(
            st.just("random_node"), _cluster, st.frozensets(_node, max_size=12)
        ),
        # Capability writes between draws: the table's cached peak must
        # follow them.
        st.tuples(st.just("set_weight"), _node, st.integers(1, 5)),
        st.tuples(st.just("drop_weight"), _node),
    ),
    max_size=60,
)


class TestNRTAgainstOrderedDictOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        _nrt_steps,
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.dictionaries(_node, st.integers(1, 5)),
    )
    def test_same_tables_picks_and_generator_state(
        self, steps, seed, capacity, initial_weights
    ):
        nrt, oracle = NRT(capacity), OrderedDictNRT(capacity)
        rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
        weights = CapabilityTable(initial_weights)
        oracle_weights = dict(initial_weights)
        for kind, *args in steps:
            if kind == "random_node":
                assert nrt.random_node(args[0], rng, weights, args[1]) == (
                    oracle.random_node(args[0], oracle_rng, oracle_weights, args[1])
                )
            elif kind == "set_weight":
                weights[args[0]] = oracle_weights[args[0]] = float(args[1])
            elif kind == "drop_weight":
                if args[0] in oracle_weights:
                    del weights[args[0]], oracle_weights[args[0]]
            else:
                getattr(nrt, kind)(*args)
                getattr(oracle, kind)(*args)
            assert nrt.clusters() == oracle.clusters()
            for cluster_id in range(3):
                assert nrt.nodes_in(cluster_id) == oracle.nodes_in(cluster_id)
                assert (cluster_id in nrt) == (cluster_id in oracle)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _add_one_at_a_time(nrt, cluster_id, node_ids):
    """``NRT.add_many`` as it was: one ``add``, one trim, per id.

    The reference the deferred trim and the ``fromkeys`` fill are checked
    against.
    """
    for node_id in node_ids:
        nrt.add(cluster_id, node_id)


def _state(nrt):
    return [(cluster_id, nrt.nodes_in(cluster_id)) for cluster_id in nrt._clusters]


_ids = st.integers(0, 9)


class TestAddManyAgainstOneAtATime:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_ids, max_size=8),                   # already in the table
        st.lists(st.lists(_ids, max_size=12), min_size=1, max_size=3),
        # The capacity: 1, 2, or the first batch's length -1 / +0 / +1.
        st.sampled_from(((1, 0), (2, 0), (-1, 1), (0, 1), (1, 1))),
        st.booleans(),
    )
    def test_same_ordered_tables(self, prefill, batches, capacity, lazily):
        offset, per_id = capacity
        capacity = max(1, offset + per_id * len(batches[0]))
        nrt, reference = NRT(capacity), NRT(capacity)
        for table in (nrt, reference):
            _add_one_at_a_time(table, 1, prefill)
        for batch in batches:
            nrt.add_many(1, iter(batch) if lazily else batch)
            _add_one_at_a_time(reference, 1, batch)
            assert _state(nrt) == _state(reference)

    def test_an_empty_batch_creates_no_table(self):
        nrt = NRT()
        nrt.add_many(4, [])
        assert nrt.clusters() == []

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(_ids, min_size=1, max_size=8, unique=True),
        st.booleans(),
        st.lists(_ids, max_size=4),
    )
    def test_join_cluster_is_add_self_then_each_known(
        self, known, self_in_known, prefill
    ):
        # A full table of fellows: where an undrawn self is evicted from
        # its own table, and a drawn one keeps its drawn place.
        node_id = known[0] if self_in_known else 10
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(peer_module, "NRT_CAPACITY", len(known))
            peer = MicroOverlay().add_peer(node_id)
        reference = NRT(len(known))
        for table in (peer.nrt, reference):
            _add_one_at_a_time(table, 2, prefill)
        peer.join_cluster(2, known_members=known)
        reference.add(2, node_id)
        _add_one_at_a_time(reference, 2, known)
        assert _state(peer.nrt) == _state(reference)
        assert (node_id in peer.nrt.nodes_in(2)) == self_in_known
