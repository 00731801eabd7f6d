"""Anti-entropy healing: re-replicating documents below the holder floor."""

from repro.content.healer import HEAL_FETCH_LIMIT
from repro.overlay.replication_manager import floor_targets, home_candidates
from tests.test_content_fetch import (
    doc_with_holders,
    make_content_system,
    pick_requester,
    settled_records,
)


def heal_until_dry(system, max_rounds=20):
    reports = []
    for _ in range(max_rounds):
        report = system.run_healing_round()
        reports.append(report)
        if report is None or not report["fetches"]:
            break
    return reports


class TestHealingRound:
    def test_disabled_content_plane_returns_none(self):
        from tests.helpers import build_live_system

        _, system = build_live_system(scale=0.02, seed=31)
        assert system.content is None
        assert system.run_healing_round() is None

    def test_quiescent_world_needs_no_healing(self):
        system = make_content_system(replication_floor=2)
        report = system.run_healing_round()
        assert report["fetches"] == 0
        assert report["below_floor"] == 0
        assert report["scanned"] == len(system.content.manifests)

    def test_crash_below_floor_triggers_re_replication(self):
        system = make_content_system(replication_floor=2)
        manager = system.content
        doc_id, holders = doc_with_holders(system, min_holders=2)
        for holder in holders[1:]:
            system.crash_node(holder)
        assert len(manager.live_holders(doc_id)) == 1
        settled = settled_records(manager)
        report = system.run_healing_round()
        assert report["below_floor"] >= 1
        assert report["fetches"] >= 1
        heal_until_dry(system)
        assert len(manager.live_holders(doc_id)) >= 2
        # Heal fetches are labelled in their records.
        purposes = {r.purpose for r in settled}
        assert "heal" in purposes

    def test_every_document_restored_to_the_floor(self):
        system = make_content_system(replication_floor=2)
        manager = system.content
        victims = [p.node_id for p in system.alive_peers()][:4]
        for node_id in victims:
            system.crash_node(node_id)
        heal_until_dry(system)
        alive = len(system.alive_peers())
        for doc_id in sorted(manager.manifests):
            holders = manager.live_holders(doc_id)
            if not holders:
                continue  # unrepairable: every copy crashed
            assert len(holders) >= min(2, alive), doc_id

    def test_lost_documents_are_reported_unrepairable(self):
        system = make_content_system(replication_floor=2)
        manager = system.content
        doc_id, holders = doc_with_holders(system)
        for holder in holders:
            system.crash_node(holder)
        assert manager.live_holders(doc_id) == []
        settled = settled_records(manager)
        report = system.run_healing_round()
        assert report["unrepairable"] >= 1
        # No fetch was wasted on a document with zero live sources.
        assert len(settled) == report["fetches"]
        assert all(
            r.doc_id != doc_id or r.purpose != "heal"
            for r in settled
        )

    def test_heal_fetch_limit_bounds_one_round(self):
        system = make_content_system(replication_floor=4)
        report = system.run_healing_round()
        assert report["below_floor"] > HEAL_FETCH_LIMIT
        assert report["fetches"] == HEAL_FETCH_LIMIT

    def test_corrupt_copy_at_the_floor_is_replaced_in_one_round(self):
        # A corrupt copy does not count toward the floor: the round scrubs
        # it (its intact chunks stay as partial state) and re-copies the
        # document from the intact holder.
        system = make_content_system(replication_floor=2)
        manager = system.content
        doc_id, holders = doc_with_holders(system, min_holders=2)
        for other in holders[2:]:
            system.peer(other).drop_document(doc_id)
        bad = holders[0]
        assert system.peer(bad).content_state.mark_corrupt(doc_id, 0)
        system.run_healing_round()
        intact = [
            node_id
            for node_id in manager.live_holders(doc_id)
            if doc_id not in system.peer(node_id).content_state.corrupt
        ]
        assert len(intact) == 2
        assert bad not in manager.live_holders(doc_id)
        assert system.peer(bad).content_state.partial[doc_id] == {1, 2, 3}

    def test_healing_is_deterministic(self):
        snapshots = []
        for _ in range(2):
            system = make_content_system(seed=13, replication_floor=2)
            settled = settled_records(system.content)
            victims = [p.node_id for p in system.alive_peers()][:3]
            for node_id in victims:
                system.crash_node(node_id)
            reports = heal_until_dry(system)
            ledger = [
                (r.doc_id, r.requester_id, r.completed_at, r.failovers)
                for r in settled
            ]
            snapshots.append((reports, ledger))
        assert snapshots[0] == snapshots[1]


def reference_round(manager):
    """The healing scan as it was before holders were counted by set
    algebra: sort every document's live holders, node by node."""
    network, ledger = manager.system.network, manager.system.ledger
    floor = manager.config.replication_floor
    budget = HEAL_FETCH_LIMIT
    scanned = below_floor = started = unrepairable = 0
    for doc_id in sorted(manager.manifests):
        scanned += 1
        holders = sorted(
            node_id
            for node_id in ledger.holders(doc_id)
            if network.is_alive(node_id)
        )
        if not holders:
            unrepairable += 1
            continue
        if len(holders) >= floor:
            continue
        below_floor += 1
        if budget <= 0:
            continue
        category_id = manager.doc_info(doc_id).categories[0]
        ranked = home_candidates(manager.system, doc_id, category_id)
        for target in floor_targets(manager.system, doc_id, ranked, floor - len(holders)):
            if budget <= 0:
                break
            if manager.fetch(target.node_id, doc_id, purpose="heal") is not None:
                started += 1
                budget -= 1
    return {
        "scanned": scanned,
        "below_floor": below_floor,
        "fetches": started,
        "unrepairable": unrepairable,
    }


class TestHealingScan:
    @staticmethod
    def _count_live_holders(system, monkeypatch):
        calls = []
        live_holders = system.ledger.live_holders

        def counting(doc_id):
            calls.append(doc_id)
            return live_holders(doc_id)

        monkeypatch.setattr(system.ledger, "live_holders", counting)
        return calls

    def test_world_at_the_floor_sorts_no_holder_list(self, monkeypatch):
        system = make_content_system(replication_floor=2)
        calls = self._count_live_holders(system, monkeypatch)
        report = system.run_healing_round()
        assert report == {
            "scanned": len(system.content.manifests),
            "below_floor": 0,
            "fetches": 0,
            "unrepairable": 0,
        }
        assert calls == []

    @staticmethod
    def _damaged_world():
        """Crashed holders, departed holders and a document nobody live
        holds; the heal budget below what the damage asks for."""
        system = make_content_system(seed=13, replication_floor=3)
        manager = system.content
        doc_id, holders = doc_with_holders(system)
        for holder in holders:
            system.crash_node(holder)
        survivors = [p.node_id for p in system.alive_peers()]
        system.leave_node(survivors[0])
        system.crash_node(survivors[1])
        assert manager.live_holders(doc_id) == []
        return system

    def test_report_and_fetches_match_the_reference_scan(self):
        system, twin = self._damaged_world(), self._damaged_world()
        settled = [settled_records(world.content) for world in (system, twin)]
        report = system.content.run_round()
        assert report == reference_round(twin.content)
        assert report["unrepairable"] >= 1
        assert report["below_floor"] > report["fetches"] == HEAL_FETCH_LIMIT
        left = set(system.departed_node_ids()) - set(system.network.crashed_nodes())
        assert left and any(
            system.ledger.holders(doc_id) & left
            for doc_id in system.content.manifests
        )
        system.sim.run()
        twin.sim.run()

        def started(records):
            return [
                (r.doc_id, r.requester_id, r.purpose)
                for r in sorted(records, key=lambda r: r.fetch_id)
            ]

        assert len(settled[0]) == HEAL_FETCH_LIMIT
        assert started(settled[0]) == started(settled[1])


class TestHealExperiment:
    def test_registry_and_formatting(self):
        from repro.experiments import EXPERIMENTS, heal

        assert EXPERIMENTS["HEAL"] is heal
        assert callable(heal.run)
        assert callable(heal.format_result)

    def test_measure_shows_healing_advantage(self, monkeypatch):
        # One churn setting at reduced scale: the healing-on arm must
        # sustain fetch success where the healing-off arm degrades.
        from repro.experiments import heal

        monkeypatch.setattr(heal, "CHURN_SETTINGS", (0.20,))
        result = heal.run(scale=0.25)
        off = result.row(0.20, False)
        on = result.row(0.20, True)
        assert on.success_rate >= off.success_rate
        assert on.heal_fetches > 0
        assert off.heal_fetches == 0
        text = heal.format_result(result)
        assert "churn" in text
