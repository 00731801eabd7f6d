"""LOSS — query success and latency vs message loss, reliability on/off.

The paper assumes request/response exchanges complete; the simulator's
network is deliberately UDP-like (Section 7 of ``docs/architecture.md``),
so any nonzero drop probability silently starves queries, publishes, and
transfers.  This experiment quantifies that gap and the repair: it sweeps
the uniform drop probability and runs the same Zipf query workload twice
per setting — once fire-and-forget (the pre-reliability behaviour) and
once with the ack/retry channel plus end-to-end query failover enabled —
reporting success rate, p99 first-response latency, and how hard the
reliability machinery had to work (retries, query failovers, give-ups).

Loss draws come from a dedicated named stream (``loss.drop``), so the
two arms of each sweep point see identical protocol randomness and the
zero-loss rows never consult the loss stream at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.core.replication import build_world
from repro.experiments.common import DES_SCALE
from repro.metrics.report import format_table
from repro.metrics.response import summarize_responses
from repro.model.workload import make_query_workload
from repro.overlay.system import P2PSystem, P2PSystemConfig
from repro.reliability import ReliabilityConfig

__all__ = ["LossRow", "LossResult", "measure", "run", "format_result"]

#: drop probabilities swept by :func:`run` (0% to 30%).
DROP_SETTINGS = (0.0, 0.05, 0.10, 0.20, 0.30)


@dataclass(frozen=True, slots=True)
class LossRow:
    """One (drop probability, reliability mode) measurement."""

    drop_probability: float
    reliable: bool
    n_queries: int
    success_rate: float
    p99_latency: float
    mean_latency: float
    #: channel retransmissions during the workload.
    retries: int
    #: end-to-end query failovers (deadline expiry -> different member).
    query_failovers: int
    #: deliveries that exhausted every attempt.
    gave_up: int


@dataclass(frozen=True, slots=True)
class LossResult:
    scale: float
    n_queries: int
    rows: tuple[LossRow, ...]

    def row(self, drop_probability: float, reliable: bool) -> LossRow:
        for row in self.rows:
            if (
                abs(row.drop_probability - drop_probability) < 1e-12
                and row.reliable is reliable
            ):
                return row
        raise KeyError((drop_probability, reliable))


def measure(
    drop_probability: float,
    reliable: bool,
    scale: float,
    seed: int = 7,
    n_queries: int = 2000,
) -> LossRow:
    """Run one workload under one (loss, reliability) setting.

    Builds a fresh world each call so the two arms of a sweep point are
    identical except for the reliability switch.
    """
    instance, assignment, plan = build_world(scale=scale, seed=seed)
    workload = make_query_workload(instance, n_queries, seed=seed + 1)
    system = P2PSystem(
        instance,
        assignment,
        plan=plan,
        config=P2PSystemConfig(
            seed=seed,
            reliability=ReliabilityConfig(enabled=reliable),
        ),
    )
    if drop_probability > 0.0:
        # A dedicated loss stream: protocol randomness is untouched, and
        # zero-loss runs never consult it (byte-identical determinism).
        system.network.rng = system.rngs.stream("loss.drop")
        system.network.set_drop_probability(drop_probability)

    retries = obs.counter("reliability.retries")
    failovers = obs.counter("reliability.query_failovers")
    gave_up = obs.counter("reliability.gave_up")
    before = (retries.value, failovers.value, gave_up.value)
    outcomes = system.run_workload(workload)
    response = summarize_responses(outcomes)
    return LossRow(
        drop_probability=drop_probability,
        reliable=reliable,
        n_queries=response.n_queries,
        success_rate=response.success_rate,
        p99_latency=response.p99_latency,
        mean_latency=response.mean_latency,
        retries=int(retries.value - before[0]),
        query_failovers=int(failovers.value - before[1]),
        gave_up=int(gave_up.value - before[2]),
    )


def run(
    scale: float = DES_SCALE,
    seed: int = 7,
    n_queries: int = 2000,
    drops: tuple[float, ...] = DROP_SETTINGS,
) -> LossResult:
    """Sweep drop probability x {unreliable, reliable}."""
    rows = []
    for drop_probability in drops:
        for reliable in (False, True):
            rows.append(
                measure(
                    drop_probability,
                    reliable,
                    scale=scale,
                    seed=seed,
                    n_queries=n_queries,
                )
            )
    return LossResult(scale=scale, n_queries=n_queries, rows=tuple(rows))


def format_result(result: LossResult) -> str:
    rows = [
        (
            f"{row.drop_probability:.2f}",
            "on" if row.reliable else "off",
            f"{row.success_rate:.4f}",
            f"{row.p99_latency:.4f}",
            f"{row.mean_latency:.4f}",
            row.retries,
            row.query_failovers,
            row.gave_up,
        )
        for row in result.rows
    ]
    return format_table(
        headers=(
            "drop",
            "reliability",
            "success",
            "p99 latency",
            "mean latency",
            "retries",
            "failovers",
            "gave up",
        ),
        rows=rows,
        title=(
            f"LOSS: query delivery vs message loss "
            f"(scale={result.scale}, {result.n_queries} queries per cell)"
        ),
    )
