"""RECOVERY — query success and recovery time across amnesia crashes,
persistence on/off.

The durability layer's promise is that an acknowledged write survives a
power loss: every store a peer journaled is replayed from snapshot + WAL
when the node reboots, so the documents only that node held come back
with it.  This experiment quantifies that promise and its absence.  It
builds the chaos harness's multi-cluster world with the content data
plane on and the replication floor pinned at one copy (so replication
cannot mask persistence — a sole-held document that dies with its node
is unrepairable), then runs crash/restart cycles against two arms that
differ only in whether per-peer journals exist.  Each cycle powers off
the planned victim (wiping its volatile memory), recovers it, runs one
reconciliation and one healing round, and fetches every document the
victim sole-held just before the crash.

With persistence on the victim replays its journal and re-advertises
its holdings, so the fetches succeed; with persistence off the node
reboots empty-handed and its sole-held documents are gone from every
live peer.  A final phase injects a split-brain ownership divergence
(a stale DCRT belief with a bumped move counter on a minority of
peers, as a partitioned stale owner would gossip) and measures how
many peers still disagree with the authoritative assignment after the
heal: the epoch-fenced reconciliation pass drives this to zero, while
without it the stale belief survives — and spreads.

Both arms share the victim plan (computed from the initial holder
directory, identical by construction) and draw fetch requesters from
the same named stream, so the fault sequence is the same; the only
difference is durability.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.harness import ChaosRunner
from repro.chaos.scenario import ScenarioConfig, Schedule
from repro.experiments.common import require
from repro.metrics.report import format_table
from repro.overlay.metadata import DCRTEntry

__all__ = ["RecoveryRow", "RecoveryResult", "measure", "run", "format_result"]

#: crash/restart cycles per arm (distinct victims, planned up front).
N_CYCLES = 3

#: replication floor for the world: one copy, so healing keeps existing
#: documents alive but can never mask a sole-holder loss — what survives
#: a power loss is exactly what persistence restores.
REPLICATION_FLOOR = 1

#: fraction of live peers given the stale belief in the divergence phase.
MINORITY_FRACTION = 0.25


@dataclass(frozen=True, slots=True)
class RecoveryRow:
    """One persistence arm's measurements."""

    persistence: bool
    n_cycles: int
    #: documents sole-held by the victims at their crash instants.
    sole_docs: int
    #: sole-held documents with no live holder after recovery + healing.
    docs_lost: int
    #: fetches issued against the victims' sole-held documents.
    queries: int
    #: fraction of those fetches that completed verified.
    query_success: float
    #: mean sim-time from power loss to recovered-and-healed, per cycle.
    mean_recover_time: float
    #: live peers disagreeing with the authoritative assignment on the
    #: divergence-phase category, before and after the heal pass.
    divergent_before: int
    divergent_after: int


@dataclass(frozen=True, slots=True)
class RecoveryResult:
    seed: int
    n_cycles: int
    rows: tuple[RecoveryRow, ...]

    def row(self, persistence: bool) -> RecoveryRow:
        for row in self.rows:
            if row.persistence is persistence:
                return row
        raise KeyError(persistence)


def _build_world(seed: int, scale: float, persistence: bool) -> ChaosRunner:
    """The chaos harness's multi-cluster world, data plane on, journals
    on or off.  Journals consume no randomness, so the two arms build
    byte-identical overlays and placements."""
    config = ScenarioConfig(
        n_docs=max(60, int(240 * scale)),
        n_nodes=48,
        n_categories=12,
        n_clusters=4,
        n_reps=1,
        features={"recovery"} if persistence else {"content"},
        content_floor=REPLICATION_FLOOR,
    )
    return ChaosRunner(Schedule(seed=seed, entries=()), config)


def _victim_plan(system, n_cycles: int) -> list[int]:
    """The nodes to power off, planned from the *initial* holder
    directory (identical in both arms): the heaviest sole-holders
    first, distinct per cycle, ties broken by node id."""
    sole_counts: dict[int, int] = {}
    for holders in system.doc_holders_view().values():
        if len(holders) == 1:
            (node_id,) = holders
            sole_counts[node_id] = sole_counts.get(node_id, 0) + 1
    ranked = sorted(sole_counts, key=lambda n: (-sole_counts[n], n))
    return ranked[:n_cycles]


def measure(
    persistence: bool,
    seed: int = 7,
    n_cycles: int = N_CYCLES,
    scale: float = 1.0,
) -> RecoveryRow:
    """Run the crash/restart cycles plus the divergence phase, one arm."""
    runner = _build_world(seed, scale, persistence)
    system = runner.system
    manager = system.content
    fetch_rng = system.rngs.stream("recovery.fetch")
    victims = _victim_plan(system, n_cycles)
    settled = []
    manager.settled_listeners.append(settled.append)

    sole_docs = docs_lost = queries = 0
    workload_ids: list[int] = []
    recover_times: list[float] = []
    for victim in victims:
        holders_view = system.doc_holders_view()
        sole = sorted(
            doc_id
            for doc_id, holders in holders_view.items()
            if set(holders) == {victim}
        )
        sole_docs += len(sole)
        started = system.sim.now
        system.power_loss(victim)
        system.sim.run()
        system.recover_node(victim)
        system.run_control_round()
        system.sim.run()
        recover_times.append(system.sim.now - started)
        alive = sorted(peer.node_id for peer in system.alive_peers())
        holders_view = system.doc_holders_view()
        for doc_id in sole:
            holders = set(holders_view.get(doc_id, ()))
            candidates = [n for n in alive if n not in holders] or alive
            requester = candidates[
                int(fetch_rng.integers(0, len(candidates)))
            ]
            queries += 1
            fetch_id = manager.fetch(requester, doc_id)
            if fetch_id is not None:
                workload_ids.append(fetch_id)
        system.sim.run()
        docs_lost += sum(
            1 for doc_id in sole if not manager.live_holders(doc_id)
        )

    done = {r.fetch_id for r in settled if r.completed_at is not None}
    completed = sum(1 for fetch_id in workload_ids if fetch_id in done)
    divergent_before, divergent_after = _divergence_phase(system)
    return RecoveryRow(
        persistence=persistence,
        n_cycles=len(victims),
        sole_docs=sole_docs,
        docs_lost=docs_lost,
        queries=queries,
        query_success=completed / queries if queries else 1.0,
        mean_recover_time=(
            sum(recover_times) / len(recover_times) if recover_times else 0.0
        ),
        divergent_before=divergent_before,
        divergent_after=divergent_after,
    )


def _divergence_phase(system) -> tuple[int, int]:
    """Inject a split-brain ownership belief, heal, count dissenters.

    A minority of live peers adopts a stale cluster for category 0 with
    a bumped move counter — exactly what a stale owner that kept
    rebalancing while partitioned would gossip after the heal.  With
    reconciliation (persistence on) an epoch-fenced authoritative
    notice overrides the bumped counter and every peer converges; with
    it off the stale entry wins counter comparisons and survives the
    settle gossip."""
    category_id = 0
    assignment = system.assignment
    target = int(assignment.category_to_cluster[category_id])
    stale_cluster = (target + 1) % assignment.n_clusters
    counter = int(assignment.move_counters[category_id]) + 1
    alive = sorted(system.alive_peers(), key=lambda peer: peer.node_id)
    minority = alive[: max(2, int(len(alive) * MINORITY_FRACTION))]
    for peer in minority:
        peer.dcrt.merge(category_id, DCRTEntry(stale_cluster, counter))

    def dissenters() -> int:
        return sum(
            1
            for peer in system.alive_peers()
            if peer.dcrt.entry(category_id).cluster_id
            != int(assignment.category_to_cluster[category_id])
        )

    before = dissenters()
    system.run_reconciliation_round()
    system.run_gossip_rounds(1)
    system.sim.run()
    return before, dissenters()


def run(
    scale: float = 1.0,
    seed: int = 7,
    n_cycles: int = N_CYCLES,
) -> RecoveryResult:
    """Measure {persistence off, persistence on} under identical faults."""
    rows = [
        measure(persistence, seed=seed, n_cycles=n_cycles, scale=scale)
        for persistence in (False, True)
    ]
    return RecoveryResult(seed=seed, n_cycles=n_cycles, rows=tuple(rows))


def format_result(result: RecoveryResult) -> str:
    rows = [
        (
            "on" if row.persistence else "off",
            row.n_cycles,
            row.sole_docs,
            row.docs_lost,
            row.queries,
            f"{row.query_success:.4f}",
            f"{row.mean_recover_time:.4f}",
            f"{row.divergent_before} -> {row.divergent_after}",
        )
        for row in result.rows
    ]
    return format_table(
        headers=(
            "persistence",
            "cycles",
            "sole docs",
            "docs lost",
            "queries",
            "success",
            "recover time",
            "divergence",
        ),
        rows=rows,
        title=(
            f"RECOVERY: sole-held availability across "
            f"{result.n_cycles} amnesia crash/restart cycles"
        ),
    )


def smoke() -> None:
    """CI gate: persistence-on recovers what persistence-off loses."""
    result = run(scale=0.5)
    print(format_result(result))
    off, on = result.row(False), result.row(True)
    require(on.query_success >= 0.99, f"persistence-on success {on.query_success}")
    require(on.docs_lost == 0, f"persistence-on lost {on.docs_lost} docs")
    require(off.docs_lost == off.sole_docs, "persistence-off kept a sole doc")
    require(on.divergent_after == 0, "reconciliation left dissenters")
    require(off.divergent_after > 0, "off-arm divergence healed without epochs")
