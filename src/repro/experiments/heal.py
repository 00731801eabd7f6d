"""HEAL — fetch success and repair latency vs churn, healing on/off.

The content data plane's promise is that chunked documents stay
fetchable through churn: anti-entropy healing re-replicates any
document whose live holder count fell below the replication floor, so
by the time the next crash wave lands every document has copies to
spare.  This experiment quantifies that promise and its absence.  It
builds the same multi-cluster world the chaos harness uses, then runs
waves of correlated crashes (``churn_rate`` of the live population per
wave, no recovery) against two arms that differ only in whether the
healer runs between waves.  After each wave every arm issues the same
fetch workload — random documents fetched by random live non-holders —
and the ledger's verdicts accumulate into per-arm success rates and
latency summaries.

Both arms draw crashes and fetch targets from the same named streams of
the same root seed, and neither the fetch scheduler nor the healer
consumes randomness, so the two arms see byte-identical fault and
workload sequences: the only difference is healing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.scenario import ScenarioConfig
from repro.chaos.harness import ChaosRunner
from repro.chaos.scenario import Schedule
from repro.experiments.common import require
from repro.metrics.report import format_table

__all__ = ["HealRow", "HealResult", "measure", "run", "format_result"]

#: churn rates swept by :func:`run` (fraction of live nodes crashed per
#: wave); the high setting is where the two arms separate decisively.
CHURN_SETTINGS = (0.05, 0.20)

#: healing floor: the healer keeps every repairable document at this
#: many live holders, so only a wave that kills all of them at once
#: (probability ~churn^floor) can make a document unfetchable.
REPLICATION_FLOOR = 4

#: crash waves per measurement (no recovery between them).
N_WAVES = 5

#: never crash below this many live nodes.
MIN_ALIVE = 12

#: cap on heal-until-dry rounds between waves (the healer's per-round
#: fetch budget means one scan may not clear the backlog).
MAX_HEAL_ROUNDS = 50


@dataclass(frozen=True, slots=True)
class HealRow:
    """One (churn rate, healing mode) measurement."""

    churn_rate: float
    healing: bool
    n_fetches: int
    success_rate: float
    mean_latency: float
    p99_latency: float
    #: mid-transfer failovers across all workload fetches.
    failovers: int
    #: re-replication fetches the healer started.
    heal_fetches: int
    #: mean completion latency of the healer's fetches (0 when none).
    mean_repair_latency: float
    #: live nodes remaining after the last wave.
    survivors: int


@dataclass(frozen=True, slots=True)
class HealResult:
    seed: int
    n_waves: int
    fetches_per_wave: int
    rows: tuple[HealRow, ...]

    def row(self, churn_rate: float, healing: bool) -> HealRow:
        for row in self.rows:
            if (
                abs(row.churn_rate - churn_rate) < 1e-12
                and row.healing is healing
            ):
                return row
        raise KeyError((churn_rate, healing))


def _build_world(seed: int, scale: float) -> ChaosRunner:
    """The chaos harness's multi-cluster world with the data plane on.

    Reusing :class:`ChaosRunner` construction (with an empty schedule)
    keeps HEAL's world identical to the fuzzed one: same clustering,
    same replication plan, same reliability layer.
    """
    config = ScenarioConfig(
        n_docs=max(60, int(240 * scale)),
        n_nodes=48,
        n_categories=12,
        n_clusters=4,
        features={"content"},
        content_floor=REPLICATION_FLOOR,
    )
    return ChaosRunner(Schedule(seed=seed, entries=()), config)


def measure(
    churn_rate: float,
    healing: bool,
    seed: int = 7,
    n_waves: int = N_WAVES,
    fetches_per_wave: int = 40,
    scale: float = 1.0,
) -> HealRow:
    """Run one churn ladder under one healing mode.

    A fresh world per call; the crash and fetch draws come from named
    streams (``heal.churn``, ``heal.fetch``) so the healing-on and
    healing-off arms replay identical fault and workload sequences.
    """
    runner = _build_world(seed, scale)
    system = runner.system
    manager = system.content
    crash_rng = system.rngs.stream("heal.churn")
    fetch_rng = system.rngs.stream("heal.fetch")
    doc_ids = sorted(manager.manifests)
    settled = []
    manager.settled_listeners.append(settled.append)

    def heal_until_dry() -> None:
        for _ in range(MAX_HEAL_ROUNDS):
            report = system.run_healing_round()
            if report is None or not report["fetches"]:
                return

    if healing:
        # Bring the initial placement (1-2 copies per document) up to
        # the floor before any churn, as a deployed healer would have.
        heal_until_dry()

    workload_ids: list[int] = []
    for _wave in range(n_waves):
        alive = [peer.node_id for peer in system.alive_peers()]
        n_crashes = min(
            int(round(churn_rate * len(alive))),
            max(0, len(alive) - MIN_ALIVE),
        )
        # Draw victims one at a time so both arms consume identical
        # stream positions regardless of how many crashes are allowed.
        for _ in range(n_crashes):
            victim = alive.pop(int(crash_rng.integers(0, len(alive))))
            system.crash_node(victim)
        if healing:
            heal_until_dry()
        alive = [peer.node_id for peer in system.alive_peers()]
        for _ in range(fetches_per_wave):
            doc_id = doc_ids[int(fetch_rng.integers(0, len(doc_ids)))]
            requester = alive[int(fetch_rng.integers(0, len(alive)))]
            fetch_id = manager.fetch(requester, doc_id)
            if fetch_id is not None:
                workload_ids.append(fetch_id)
        system.sim.run()

    # Start order, the order the repair latencies are summed in.
    settled.sort(key=lambda r: r.fetch_id)
    by_id = {r.fetch_id: r for r in settled}
    records = [by_id[fetch_id] for fetch_id in workload_ids]
    completed = [r for r in records if r.completed_at is not None]
    latencies = sorted(r.completed_at - r.started_at for r in completed)
    heals = [r for r in settled if r.purpose == "heal"]
    repairs = [r for r in heals if r.completed_at is not None]
    mean_repair = (
        sum(r.completed_at - r.started_at for r in repairs) / len(repairs)
        if repairs
        else 0.0
    )
    return HealRow(
        churn_rate=churn_rate,
        healing=healing,
        n_fetches=len(records),
        success_rate=len(completed) / len(records) if records else 1.0,
        mean_latency=sum(latencies) / len(latencies) if latencies else 0.0,
        p99_latency=(
            latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
            if latencies
            else 0.0
        ),
        failovers=sum(r.failovers for r in records),
        heal_fetches=len(heals),
        mean_repair_latency=mean_repair,
        survivors=len(system.alive_peers()),
    )


def run(
    scale: float = 1.0,
    seed: int = 7,
    churns: tuple[float, ...] = CHURN_SETTINGS,
) -> HealResult:
    """Sweep churn rate x {healing off, healing on}."""
    fetches_per_wave = max(10, int(40 * scale))
    rows = []
    for churn_rate in churns:
        for healing in (False, True):
            rows.append(
                measure(
                    churn_rate,
                    healing,
                    seed=seed,
                    fetches_per_wave=fetches_per_wave,
                    scale=scale,
                )
            )
    return HealResult(
        seed=seed,
        n_waves=N_WAVES,
        fetches_per_wave=fetches_per_wave,
        rows=tuple(rows),
    )


def format_result(result: HealResult) -> str:
    rows = [
        (
            f"{row.churn_rate:.2f}",
            "on" if row.healing else "off",
            row.n_fetches,
            f"{row.success_rate:.4f}",
            f"{row.mean_latency:.4f}",
            f"{row.p99_latency:.4f}",
            row.failovers,
            row.heal_fetches,
            f"{row.mean_repair_latency:.4f}",
            row.survivors,
        )
        for row in result.rows
    ]
    return format_table(
        headers=(
            "churn",
            "healing",
            "fetches",
            "success",
            "mean latency",
            "p99 latency",
            "failovers",
            "heals",
            "repair latency",
            "survivors",
        ),
        rows=rows,
        title=(
            f"HEAL: fetch success vs churn "
            f"({result.n_waves} crash waves, "
            f"{result.fetches_per_wave} fetches per wave)"
        ),
    )


def smoke() -> None:
    """CI gate: healing-on holds the floor where healing-off drops."""
    result = run(scale=0.5)
    print(format_result(result))
    high = max(row.churn_rate for row in result.rows)
    off, on = result.row(high, False), result.row(high, True)
    require(on.success_rate >= 0.99, f"healing-on success {on.success_rate}")
    require(off.success_rate < 0.90, f"healing-off success {off.success_rate}")
    require(on.heal_fetches > 0, "healer never fetched")
