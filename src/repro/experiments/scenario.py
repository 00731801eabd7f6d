"""SCENARIO — the declarative workload engine's spec matrix, end to end.

Not a paper figure: this experiment drives :mod:`repro.scenario` — for
each spec in :func:`~repro.scenario.spec.standard_matrix` (a stationary
baseline, a diurnal cycle with regional time zones plus a correlated
regional partition, popularity drift with a breaking-news skew flip, and
a free-rider population with misbehaving peers) it builds a fresh
overlay, expands the spec into a deterministic
:class:`~repro.scenario.engine.EventStream`, and plays the stream in
phases: queries are issued at their scheduled times, control events
(misbehavior arming, partitions, heals) fire between phases, and the
:class:`~repro.chaos.invariants.InvariantChecker` watches every
quiescent step — including the ``response-integrity`` invariant once a
misbehaving peer is armed.

Reported per spec and phase: goodput (successes per unit of sim time),
p99 first-response latency, and Jain fairness over how evenly the
phase's serving work spread across the contributing (non-free-riding)
peers.  Identical seeds replay identically — the stream is a pure
function of the spec, so every number here is reproducible from the
spec's JSON alone::

    repro-experiments scenario
    repro-experiments scenario --seed 11
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.invariants import InvariantChecker
from repro.core.fairness import jain_fairness
from repro.core.replication import build_world
from repro.experiments.common import require
from repro.metrics.report import format_table
from repro.metrics.response import summarize_responses
from repro.model.system import SystemConfig, build_system
from repro.model.workload import QueryWorkload
from repro.overlay.peer import MisbehaviorConfig
from repro.overlay.system import P2PSystem, P2PSystemConfig
from repro.reliability import ReliabilityConfig
from repro.scenario import generate_events, designate_free_riders, standard_matrix

__all__ = ["ScenarioResult", "run", "format_result"]

#: measurement phases each spec's duration is split into.
_N_PHASES = 4

#: fixed world shape (multi-cluster at small scale, like OVERLOAD).
_WORLD = dict(
    n_docs=200,
    n_nodes=16,
    n_categories=12,
    n_clusters=4,
    doc_size_bytes=65_536,
)


@dataclass(slots=True)
class ScenarioResult:
    """Per-phase measurements for every spec in the matrix."""

    seed: int
    n_specs: int
    n_phases: int
    #: total invariant violations across all specs (0 = clean run).
    violations: int
    #: one entry per (spec, phase) pair, phase-major within each spec.
    spec_names: list[str] = field(default_factory=list)
    phase_index: list[int] = field(default_factory=list)
    n_queries: list[int] = field(default_factory=list)
    goodput: list[float] = field(default_factory=list)
    p99_latency: list[float] = field(default_factory=list)
    fairness: list[float] = field(default_factory=list)
    #: per-spec free-rider counts (parallel with the matrix specs).
    violation_details: list[str] = field(default_factory=list)


def _partition_groups(system, spec, region: int) -> tuple[list[int], list[int]]:
    """The (region members, everyone else) split of the live population."""
    alive = sorted(peer.node_id for peer in system.alive_peers())
    members = [
        node_id for node_id in alive if node_id % spec.n_regions == region
    ]
    others = [node_id for node_id in alive if node_id not in set(members)]
    return members, others


def _apply_control(system, spec, control) -> None:
    params = dict(control.params)
    if control.kind == "misbehave":
        if params["mode"] == "stale_gossip":
            config = MisbehaviorConfig(stale_gossip=True)
        else:
            config = MisbehaviorConfig(bogus_responses=True)
        system.set_misbehavior(params["node_id"], config)
    elif control.kind == "partition":
        members, others = _partition_groups(system, spec, params["region"])
        if members and others:
            system.network.schedule_partition(0.0, [members, others])
            system.sim.run()
    elif control.kind == "heal":
        system.network.schedule_heal(0.0)
        system.sim.run()


def run(
    seed: int = 7,
    check_invariants: bool = True,
) -> ScenarioResult:
    """Run the standard 4-spec matrix; see the module docstring.

    There is no ``scale``: the scenario world uses a fixed multi-cluster
    configuration so ownership and integrity invariants stay meaningful.
    """
    matrix = standard_matrix(seed=seed)
    result = ScenarioResult(
        seed=seed, n_specs=len(matrix), n_phases=_N_PHASES, violations=0
    )
    for spec in matrix:
        instance = build_system(SystemConfig(seed=spec.seed, **_WORLD))
        if spec.free_riders is not None:
            designate_free_riders(
                instance, spec.free_riders.fraction, spec.seed
            )
        _, assignment, plan = build_world(
            instance, exclude_free_riders=spec.free_riders is not None
        )
        system = P2PSystem(
            instance,
            assignment,
            plan=plan,
            config=P2PSystemConfig(
                seed=spec.seed,
                reliability=ReliabilityConfig(enabled=True),
            ),
        )
        checker = InvariantChecker(system)
        unregister = None
        if check_invariants:
            unregister = system.sim.on_quiescence(checker.check_structural)

        stream = generate_events(spec, instance)
        contributors = [
            peer
            for peer in system.alive_peers()
            if not system.is_free_rider(peer.node_id)
        ]
        served_before = {
            peer.node_id: peer.requests_served for peer in contributors
        }
        controls = list(stream.controls)
        phase_window = spec.duration / _N_PHASES
        # Bucket every query into exactly one phase by its issue time.
        buckets: list[list[tuple[float, object]]] = [
            [] for _ in range(_N_PHASES)
        ]
        for time, query in zip(stream.times, stream.workload.queries):
            index = min(int(time / phase_window), _N_PHASES - 1)
            buckets[index].append((time, query))
        try:
            for phase in range(_N_PHASES):
                checker.step = phase
                start = phase * phase_window
                end = start + phase_window
                while controls and controls[0].time < end + 1e-9:
                    _apply_control(system, spec, controls.pop(0))
                phase_times = [time - start for time, _ in buckets[phase]]
                phase_queries = [query for _, query in buckets[phase]]
                outcomes = system.run_workload(
                    QueryWorkload(queries=phase_queries),
                    at_times=phase_times,
                )
                if check_invariants:
                    checker.check("query-termination", outcomes)
                response = summarize_responses(outcomes)
                served_now = {
                    peer.node_id: peer.requests_served for peer in contributors
                }
                deltas = [
                    served_now[node_id] - served_before[node_id]
                    for node_id in sorted(served_before)
                ]
                served_before = served_now
                result.spec_names.append(spec.name)
                result.phase_index.append(phase)
                result.n_queries.append(len(outcomes))
                result.goodput.append(
                    response.n_succeeded / phase_window if phase_window else 0.0
                )
                result.p99_latency.append(
                    response.p99_latency if response.n_succeeded else 0.0
                )
                result.fairness.append(jain_fairness(deltas))
        finally:
            if unregister is not None:
                unregister()
        result.violations += len(checker.violations)
        result.violation_details.extend(
            str(violation) for violation in checker.violations
        )
    return result


def format_result(result: ScenarioResult) -> str:
    rows = [
        (
            result.spec_names[i],
            result.phase_index[i],
            result.n_queries[i],
            f"{result.goodput[i]:.1f}",
            f"{result.p99_latency[i]:.4f}",
            f"{result.fairness[i]:.3f}",
        )
        for i in range(len(result.spec_names))
    ]
    lines = [
        format_table(
            ["spec", "phase", "queries", "goodput/s", "p99 latency", "fairness"],
            rows,
            title=(
                f"SCENARIO matrix (seed {result.seed}, "
                f"{result.n_specs} specs x {result.n_phases} phases)"
            ),
        ),
        f"invariant violations: {result.violations}",
    ]
    lines.extend(f"  {detail}" for detail in result.violation_details)
    return "\n".join(lines)


def smoke() -> None:
    """CI gate: 4 specs, invariants clean."""
    result = run(seed=7)
    print(format_result(result))
    require(result.n_specs == 4, "matrix did not run all four specs")
    require(result.violations == 0, result.violation_details)
    require(all(n > 0 for n in result.n_queries), "a phase issued no queries")
    require(all(g > 0 for g in result.goodput), "a phase served nothing")
