"""Tests for repro.overlay.metadata — the Figure 1 data structures."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.overlay.metadata import DCRT, DCRTEntry, NRT, DocumentTable
from repro.overlay.peer import PeerConfig

from tests.helpers import MicroOverlay


class TestDocumentTable:
    def test_add_and_lookup(self):
        dt = DocumentTable()
        dt.add(1, (3, 4))
        assert dt.has_document(1)
        assert dt.categories_of(1) == (3, 4)
        assert len(dt) == 1

    def test_remove(self):
        dt = DocumentTable()
        dt.add(1, (3,))
        dt.remove(1)
        assert not dt.has_document(1)
        dt.remove(1)  # idempotent

    def test_has_category(self):
        dt = DocumentTable()
        dt.add(1, (3,))
        assert dt.has_category(3)
        assert not dt.has_category(4)

    def test_docs_in_category(self):
        dt = DocumentTable()
        dt.add(1, (3,))
        dt.add(2, (3, 4))
        dt.add(5, (4,))
        assert sorted(dt.docs_in_category(3)) == [1, 2]
        assert sorted(dt.docs_in_category(4)) == [2, 5]

    def test_rejects_empty_categories(self):
        with pytest.raises(ValueError):
            DocumentTable().add(1, ())


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

    def test_remove(self):
        nrt = NRT()
        nrt.add(1, 10)
        nrt.remove(1, 10)
        assert nrt.nodes_in(1) == []
        assert 1 not in nrt

    def test_remove_node_everywhere(self):
        nrt = NRT()
        nrt.add(1, 10)
        nrt.add(2, 10)
        nrt.add(2, 11)
        nrt.remove_node(10)
        assert nrt.nodes_in(1) == []
        assert nrt.nodes_in(2) == [11]

    def test_random_node_uniformish(self):
        nrt = NRT()
        nrt.add_many(1, range(10))
        rng = np.random.default_rng(0)
        picks = [nrt.random_node(1, rng) for _ in range(2000)]
        counts = np.bincount(picks, minlength=10)
        assert counts.min() > 120  # expected 200 each

    def test_random_node_empty(self):
        nrt = NRT()
        assert nrt.random_node(9, np.random.default_rng(0)) is None

    def test_clusters_listing(self):
        nrt = NRT()
        nrt.add(3, 1)
        nrt.add(1, 1)
        assert nrt.clusters() == [1, 3]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            NRT(max_nodes_per_cluster=0)


def _random_node_by_list_copy(nrt, cluster_id, rng, exclude=()):
    """``NRT.random_node`` as it was: copy the members into a list, index it.

    The reference the position walk in ``random_node`` is checked against.
    """
    members = nrt._clusters.get(cluster_id)
    if not members:
        return None
    if exclude:
        node_ids = [node_id for node_id in members if node_id not in exclude]
        if not node_ids:
            return None
    else:
        node_ids = list(members)
    choice = node_ids[int(rng.integers(0, len(node_ids)))]
    members.move_to_end(choice)
    return choice


_nrt_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 11)),
        st.tuples(st.just("remove"), st.integers(0, 11)),
        st.tuples(st.just("pick"), st.frozensets(st.integers(0, 11), max_size=12)),
    ),
    max_size=60,
)


class TestRandomNodeAgainstListCopy:
    @settings(max_examples=200, deadline=None)
    @given(_nrt_steps, st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_same_node_same_lru_order_same_generator_state(
        self, steps, seed, capacity
    ):
        nrt, reference = NRT(capacity), NRT(capacity)
        rng, reference_rng = (np.random.default_rng(seed) for _ in range(2))
        for kind, argument in steps:
            if kind == "pick":
                # An empty frozenset is the plain call without ``exclude``.
                assert nrt.random_node(1, rng, argument) == (
                    _random_node_by_list_copy(
                        reference, 1, reference_rng, argument
                    )
                )
            else:
                for table in (nrt, reference):
                    getattr(table, kind)(1, argument)
            assert nrt.nodes_in(1) == reference.nodes_in(1)
            assert (
                rng.bit_generator.state == reference_rng.bit_generator.state
            )


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
        config = PeerConfig(nrt_capacity=len(known))
        peer = MicroOverlay().add_peer(node_id, config=config)
        reference = NRT(len(known))
        for table in (peer.nrt, reference):
            _add_one_at_a_time(table, 2, prefill)
        peer.join_cluster(2, known_members=known)
        reference.add(2, node_id)
        _add_one_at_a_time(reference, 2, known)
        assert _state(peer.nrt) == _state(reference)
        assert (node_id in peer.nrt.nodes_in(2)) == self_in_known
