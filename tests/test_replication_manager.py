"""Tests for the demand term of the replica loop.

Pins the behaviours :mod:`repro.overlay.replication_manager` promises:
off by default, pressure-driven growth (served hits + weighted sheds per
live replica), grow-fast/shrink-slow hysteresis, capacity-ranked
placement through real document transfers, cached copies counted as
copies, the ``MAX_REPLICAS`` ceiling, and clean retire semantics (only
copies the loop placed are ever dropped).
"""

import numpy as np
import pytest

from repro.chaos import InvariantChecker
from repro.content import ContentConfig
from repro.core.maxfair import maxfair
from repro.core.popularity import build_category_stats
from repro.core.replication import plan_replication
from repro.model.system import SystemConfig, build_system
from repro.overlay.peer import DocInfo
from repro.overlay.replication_manager import (
    DOCS_PER_REPLICA,
    GROW_STEP,
    MAX_REPLICAS,
    SHRINK_AFTER,
    ReplicationConfig,
    ReplicationManager,
    home_candidates,
)
from repro.overlay.system import P2PSystem, P2PSystemConfig
from repro.reliability import ReliabilityConfig

from tests.helpers import build_live_system, violated


def _adaptive_system(seed=7, n_nodes=12, **overrides):
    """A multi-cluster world with the manager on.

    Built from explicit counts (like the chaos and CACHE-QOS worlds):
    the paper-scale knobs collapse to a single cluster at test-friendly
    sizes, where the baseline plan already replicates the hottest
    documents onto every member and placement would be vacuous.
    """
    instance = build_system(SystemConfig(
        seed=seed,
        n_docs=200,
        n_nodes=n_nodes,
        n_categories=12,
        n_clusters=4,
        doc_size_bytes=65_536,
    ))
    stats = build_category_stats(instance)
    assignment = maxfair(instance, stats=stats)
    plan = plan_replication(instance, assignment, n_reps=2, hot_mass=0.35)
    config = P2PSystemConfig(
        seed=seed,
        cache_capacity=8,
        replication=ReplicationConfig(enabled=True),
        **overrides,
    )
    return P2PSystem(instance, assignment, plan=plan, config=config)


def _heat(system, category_id, hits=10_000):
    """Make ``category_id`` look hot: credit hits to one live holder."""
    manager = system.replication
    doc_ids = manager._category_docs[category_id]
    holders_view = system.doc_holders_view()
    holder_id = next(
        node_id
        for doc_id in doc_ids
        for node_id in sorted(holders_view.get(doc_id, ()))
        if system.network.is_alive(node_id)
    )
    peer = system.peers[holder_id]
    peer.hit_counters[category_id] = (
        peer.hit_counters.get(category_id, 0) + hits
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicationConfig(grow_threshold=1.0, shrink_threshold=2.0)
        with pytest.raises(ValueError):
            ReplicationConfig(grow_threshold=1.0, shrink_threshold=1.0)

    def test_disabled_by_default(self):
        _instance, system = build_live_system(scale=0.02, seed=31)
        assert system.replication is None
        assert "replication" not in system.rounds
        assert system.run_replication_round() is None


def _hot(system, category_id):
    """Heat ``category_id`` and return the documents a round will grow."""
    _heat(system, category_id)
    return system.replication._hot_docs(category_id)


class TestGrow:
    def test_quiet_world_never_grows(self):
        system = _adaptive_system()
        for _ in range(5):
            report = system.run_replication_round()
            assert report.grown == {}
        assert system.replication.total_placed() == 0

    def test_hot_category_grows_real_replicas(self):
        system = _adaptive_system()
        manager = system.replication
        category_id = min(manager._category_docs)
        wanted = _hot(system, category_id)
        assert len(wanted) == DOCS_PER_REPLICA
        report = system.run_replication_round()

        assert sorted(report.grown) == sorted(wanted)
        holders_view = system.doc_holders_view()
        for doc_id, nodes in report.grown.items():
            assert len(nodes) == GROW_STEP
            assert manager.extra[doc_id] == GROW_STEP
            assert manager.placed[doc_id] == set(nodes)
            # The transfers actually landed: every placed copy is stored
            # and registered in the holder directory.
            for node_id in nodes:
                assert doc_id in system.peers[node_id].docs
                assert node_id in holders_view[doc_id]

    def test_placement_prefers_high_capacity(self):
        system = _adaptive_system()
        manager = system.replication
        category_id = min(manager._category_docs)
        wanted = _hot(system, category_id)
        expected = {
            doc_id: tuple(
                peer.node_id
                for peer in home_candidates(system, doc_id, category_id)
            )[:GROW_STEP]
            for doc_id in wanted
        }
        report = system.run_replication_round()
        assert report.grown == expected
        cluster_id = int(system.assignment.category_to_cluster[category_id])
        for doc_id, chosen in expected.items():
            weakest = min(system.peers[n].capacity_units for n in chosen)
            for peer in system.peers_in_cluster(cluster_id):
                if peer.node_id not in chosen and doc_id not in peer.docs:
                    assert peer.capacity_units <= weakest

    def test_max_replicas_caps_growth(self):
        # Twice the nodes: a cluster of the default world has fewer
        # candidates per document than the ceiling.
        system = _adaptive_system(n_nodes=24)
        manager = system.replication
        category_id = min(manager._category_docs)
        doc_id = _hot(system, category_id)[0]
        # More candidates than the ceiling, so the ceiling is what stops.
        assert len(home_candidates(system, doc_id, category_id)) > MAX_REPLICAS
        counts = []
        for _ in range(MAX_REPLICAS // GROW_STEP + 1):
            _heat(system, category_id)
            system.run_replication_round()
            counts.append(len(manager.placed[doc_id]))
        assert counts == [2, 4, 6, 8, 8]

    def test_cached_copy_counts_and_is_not_reshipped(self):
        system = _adaptive_system()
        manager = system.replication
        category_id = min(manager._category_docs)
        wanted = _hot(system, category_id)
        doc_id = wanted[0]
        target = home_candidates(system, doc_id, category_id)[0]
        # Seed the best-ranked candidate's cache with the hot doc via the
        # real retrieval-fill path.
        target.queries.cache_store(DocInfo(
            doc_id=doc_id, categories=(category_id,), size_bytes=1000
        ))
        assert target.queries.cache.owns(doc_id)

        report = system.run_replication_round()
        # The cached copy is a copy: the loop ships to the next two and
        # leaves the cache's copy to the cache.
        assert target.node_id not in report.grown[doc_id]
        assert len(report.grown[doc_id]) == GROW_STEP
        assert target.queries.cache.owns(doc_id)


class TestHysteresis:
    def test_grow_waits_for_grow_after_rounds(self):
        # Grow fast: the first hot round already grows.
        system = _adaptive_system()
        manager = system.replication
        category_id = min(manager._category_docs)
        first = system.run_replication_round()
        assert first.grown == {}
        wanted = _hot(system, category_id)
        second = system.run_replication_round()
        assert set(second.grown) == set(wanted)

    def test_shrink_slowly_one_per_round(self):
        system = _adaptive_system()
        manager = system.replication
        category_id = min(manager._category_docs)
        doc_id = _hot(system, category_id)[0]
        system.run_replication_round()
        placed = len(manager.placed[doc_id])
        assert placed == GROW_STEP

        counts = []
        for _ in range(placed + 4):
            system.run_replication_round()
            counts.append(len(manager.placed.get(doc_id, ())))
        # The first SHRINK_AFTER - 1 quiet rounds must not retire anything.
        assert counts[: SHRINK_AFTER - 1] == [placed] * (SHRINK_AFTER - 1)
        assert counts[SHRINK_AFTER - 1] == placed - 1
        # Then exactly one copy retires per round, down to zero.
        assert counts[-1] == 0
        drops = [a - b for a, b in zip(counts, counts[1:])]
        assert all(drop in (0, 1) for drop in drops)
        assert doc_id not in manager.extra

    def test_shrink_drops_managed_docs_only(self):
        system = _adaptive_system()
        manager = system.replication
        category_id = min(manager._category_docs)
        _hot(system, category_id)
        system.run_replication_round()
        placed = {doc_id: set(nodes) for doc_id, nodes in manager.placed.items()}
        nodes = set().union(*placed.values())
        kept = {
            node_id: {
                doc_id
                for doc_id in system.peers[node_id].docs
                if node_id not in placed.get(doc_id, ())
            }
            for node_id in nodes
        }

        while manager.total_placed():
            system.run_replication_round()
        for doc_id, holders in placed.items():
            for node_id in holders:
                assert doc_id not in system.peers[node_id].docs
        for node_id, contributions in kept.items():
            assert contributions <= system.peers[node_id].docs.keys()

    @pytest.mark.parametrize("content", [False, True], ids=["plain", "content"])
    def test_lost_pull_is_placed_again_by_the_next_round(self, content):
        # The replica loop is a lost pull's one recoverer: the copy never
        # arrives, so the next round forgets it and places it again.
        system = _adaptive_system(
            reliability=ReliabilityConfig(enabled=True),
            content=ContentConfig(enabled=content),
        )
        manager = system.replication
        wanted = _hot(system, min(manager._category_docs))
        system.network.rng = np.random.default_rng(0)
        system.network.set_kind_drop_probability("transfer_data", 0.999999)
        lost = system.run_replication_round().grown
        assert sorted(lost) == sorted(wanted)
        for doc_id, nodes in lost.items():
            for node_id in nodes:
                assert doc_id not in system.peers[node_id].docs
                # A manifest shipped beside the lost pull advertises nothing.
                assert node_id not in system.ledger.holders(doc_id)
        system.network.clear_kind_drop_probabilities()
        again = system.run_replication_round()
        assert again.shrunk == {d: tuple(sorted(n)) for d, n in lost.items()}
        for doc_id in wanted:
            assert len(again.grown[doc_id]) == GROW_STEP
            for node_id in manager.placed[doc_id]:
                assert doc_id in system.peers[node_id].docs

    def test_dead_managed_node_is_forgotten_without_drops(self):
        system = _adaptive_system()
        manager = system.replication
        category_id = min(manager._category_docs)
        doc_id = _hot(system, category_id)[0]
        report = system.run_replication_round()
        node_id = report.grown[doc_id][0]
        docs_before = set(system.peers[node_id].docs)
        system.crash_node(node_id)

        report = system.run_replication_round()
        assert node_id in report.shrunk[doc_id]
        assert node_id not in manager.placed[doc_id]
        while manager.total_placed():
            system.run_replication_round()
        # The corpse's disk is dark but untouched — doc conservation
        # still counts its copies.
        assert set(system.peers[node_id].docs) == docs_before


class TestInvariant:
    def test_replication_bounds_clean_through_grow_and_shrink(self):
        system = _adaptive_system()
        checker = InvariantChecker(system)
        category_id = min(system.replication._category_docs)
        _heat(system, category_id)
        system.run_replication_round()
        checker.check_structural()
        for _ in range(12):
            system.run_replication_round()
        checker.check_structural()
        assert checker.violations == []

    def test_over_ceiling_is_flagged(self):
        system = _adaptive_system()
        checker = InvariantChecker(system)
        manager = system.replication
        # Defect injection: one placed copy past the ceiling, and one on a
        # node that does not exist.
        manager.placed[0] = set(range(MAX_REPLICAS + 1))
        manager.placed[1] = {999_999}
        checker.check_structural()
        assert "replication-bounds" in violated(checker)
        messages = [str(v) for v in checker.violations]
        assert any("doc 0 has 9 placed copies" in m for m in messages)
        assert any("unknown node 999999" in m for m in messages)


class _PairScanManager(ReplicationManager):
    """The two lookups as they were before the set-union scan: one liveness
    test per (document, holder) pair, every document of the category tested
    for shippability and the list sliced afterwards, both over the sorted
    full copy ``doc_holders_view()`` returns.  The reference the manager's
    own ``_read_signals`` and ``_hot_docs`` are checked against."""

    def _read_signals(self):
        demand, _ = super()._read_signals()  # the demand half is unchanged
        system = self.system
        holders_view = system.doc_holders_view()
        live_holders = {}
        for category_id, doc_ids in self._category_docs.items():
            nodes = set()
            for doc_id in doc_ids:
                for node_id in holders_view.get(doc_id, ()):
                    if system.network.is_alive(node_id):
                        nodes.add(node_id)
            live_holders[category_id] = len(nodes)
        return demand, live_holders

    def _hot_docs(self, category_id):
        system = self.system
        holders_view = system.doc_holders_view()
        cluster_id = int(system.assignment.category_to_cluster[category_id])
        members = system.peers_in_cluster(cluster_id)
        ranked = sorted(
            self._category_docs.get(category_id, ()),
            key=lambda d: (-len(holders_view.get(d, ())), d),
        )
        return [
            d for d in ranked
            if any(d not in peer.docs for peer in members)
        ][:DOCS_PER_REPLICA]


class TestAgainstPairScan:
    """The manager against the brute-force reference, on twin worlds."""

    @staticmethod
    def _disturbed_world(reference: bool):
        """A crashed holder, a departed holder, cache-owned copies and a
        document nobody holds any more."""
        system = _adaptive_system(seed=11)
        if reference:
            system.replication.__class__ = _PairScanManager
        manager = system.replication
        hot, other = sorted(manager._category_docs)[:2]
        holders = sorted(
            {n for d in manager._category_docs[hot]
             for n in system.doc_holders_view().get(d, ())}
        )
        system.crash_node(holders[0])
        system.leave_node(holders[1])
        orphan = manager._category_docs[other][0]
        for node_id in sorted(system.doc_holders_view()[orphan]):
            system.peers[node_id].drop_document(orphan)
        assert orphan not in system.doc_holders_view()
        # Cache-owned copies that decide what the cluster can still take: a
        # document every live cluster member stores, some only in a cache.
        cluster_id = int(system.assignment.category_to_cluster[hot])
        members = system.peers_in_cluster(cluster_id)
        lacking = {
            doc_id: [peer for peer in members if doc_id not in peer.docs]
            for doc_id in manager._category_docs[hot]
        }
        cached = min(
            (d for d in lacking if lacking[d]), key=lambda d: len(lacking[d])
        )
        for peer in lacking[cached]:
            peer.queries.cache_store(DocInfo(
                doc_id=cached, categories=(hot,), size_bytes=1000
            ))
        assert all(cached in peer.docs for peer in members)
        assert any(peer.queries.cache.owns(cached) for peer in members)
        return system, (hot, other)

    def test_signals_hot_docs_and_five_rounds_identical(self):
        system, heated = self._disturbed_world(reference=False)
        twin, _ = self._disturbed_world(reference=True)
        manager, reference = system.replication, twin.replication
        assert type(manager) is ReplicationManager
        assert manager._read_signals() == reference._read_signals()
        reports = []
        for round_id in range(5):
            if round_id < len(heated):
                for world in (system, twin):
                    _heat(world, heated[round_id])
            for category_id in manager._category_docs:
                assert manager._hot_docs(category_id) == (
                    reference._hot_docs(category_id)
                )
            report = system.run_replication_round()
            assert report == twin.run_replication_round()
            reports.append(report)
        # Not vacuous: the five rounds both grew and shrank.
        assert any(report.grown for report in reports)
        assert any(report.shrunk for report in reports)
        assert manager.placed == reference.placed
        assert system.doc_holders_view() == twin.doc_holders_view()
