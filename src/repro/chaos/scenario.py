"""Seeded scenario generation: one seed -> one fault schedule.

A :class:`Schedule` is a flat sequence of :class:`ScheduleEntry` actions
drawn from the :data:`ACTIONS` registry.  Entries carry *ranks* rather
than concrete node ids ("crash the k-th live node", "publish from the
k-th live node") so a schedule stays meaningful — and deterministic —
when the shrinker drops earlier entries and the live-node population at
each step changes.

Every action belongs to one *group* and every group draws from its own
named RNG stream: ``core`` from ``"chaos.schedule"``, each feature group
from ``"chaos.schedule.<group>"``.  The core stream picks one action per
step; each feature group that is on decides per step, from its own
stream, whether to insert one of its actions after the core entry.  So
the schedule for features A | B is the merge of the schedules for A and
for B, and adding an action to one group never shifts another's draws.

The generator appends a fixed cooldown tail (heal, zero loss, gossip,
convergence check) so the convergence and fairness invariants are
evaluated on a network that has had a fair chance to settle, never on one
that is still partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Iterable

from repro.model.zipf import TimeVaryingZipfSampler
from repro.sim.rng import RngRegistry

__all__ = [
    "ACTIONS",
    "Action",
    "FEATURES",
    "ScenarioConfig",
    "ScheduleEntry",
    "Schedule",
    "draw_requests",
    "generate_schedule",
    "parse_features",
]

#: what a chaos world can switch on.  Every name but ``adaptive`` is also
#: an action group of :data:`ACTIONS`; ``adaptive`` (requester-side caches
#: plus the demand-adaptive replication manager) only changes the world.
FEATURES: tuple[str, ...] = (
    "overload",
    "adaptive",
    "scenario",
    "content",
    "recovery",
)


def parse_features(names: str | Iterable[str]) -> frozenset[str]:
    """Validate feature names (``"a,b"`` or an iterable) into a frozenset."""
    if isinstance(names, str):
        names = (name.strip() for name in names.split(","))
    features = frozenset(name for name in names if name)
    unknown = sorted(features - set(FEATURES))
    if unknown:
        raise ValueError(
            f"unknown chaos feature(s): {', '.join(unknown)}; "
            f"known: {', '.join(FEATURES)}"
        )
    return features


#: upper bound for a loss ramp's target drop probability.
MAX_LOSS = 0.25
#: gossip rounds in the cooldown tail before the convergence check.
COOLDOWN_GOSSIP_ROUNDS = 4
#: queries per ``flash_crowd`` entry are drawn from [30, this].
FLASH_CROWD_MAX = 100
#: queries per ``diurnal_burst`` entry (from 5) before rate modulation.
DIURNAL_BURST_MAX = 30


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """World size and fuzzing knobs for one chaos run.

    The world is built from explicit counts rather than
    ``SystemConfig.scaled`` — the paper-scale defaults collapse to a
    single cluster at chaos-friendly sizes, which would make ownership
    and rebalance invariants vacuous.
    """

    n_docs: int = 600
    n_nodes: int = 60
    n_categories: int = 12
    n_clusters: int = 4
    n_reps: int = 2
    doc_size_bytes: int = 262_144
    n_steps: int = 40
    #: queries per ``query_burst`` entry are drawn from [5, this].
    query_burst_max: int = 25
    #: never leave/crash below this many live nodes.
    min_alive: int = 20
    #: which of :data:`FEATURES` are on (any iterable of names, or
    #: ``"a,b"``).  This one set picks the world the harness builds, the
    #: action groups the generator draws from and — through the built
    #: system — the invariants the checker runs.  ``overload``: per-peer
    #: service model plus client-side protections (retry budgets, circuit
    #: breakers, adaptive timeouts).  ``adaptive``: caches plus the
    #: replication manager, one control round per entry.  ``scenario``:
    #: the scenario-engine stressors.  ``content``: chunked documents, one
    #: fetch-and-heal round per entry.  ``recovery``: per-peer journals,
    #: one reconciliation round per entry; implies ``content`` (recovered
    #: holdings re-verify against manifests).
    features: frozenset[str] = frozenset()
    #: healing floor for content worlds: anti-entropy re-replicates any
    #: document whose live holder count fell below this.
    content_floor: int = 2

    def __post_init__(self) -> None:
        features = parse_features(self.features)
        if "recovery" in features:
            features |= {"content"}
        object.__setattr__(self, "features", features)

    def __repr__(self) -> str:
        # Non-default fields only, features sorted: emitted reproducers
        # stay short and byte-stable across runs.
        shown = {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if getattr(self, spec.name) != spec.default
        }
        if "features" in shown:
            shown["features"] = sorted(shown["features"])
        args = ", ".join(f"{name}={value!r}" for name, value in shown.items())
        return f"ScenarioConfig({args})"


@dataclass(frozen=True)
class ScheduleEntry:
    """One event: a fuzzed fault step, or a compiled scenario query or
    control.

    ``params`` holds only JSON-safe scalars, so ``repr`` of an entry is
    valid Python source and :meth:`Schedule.to_python` — the one
    serialisation, which reproducers embed — is eval-able.
    """

    step: int
    action: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Schedule:
    """A complete, replayable fault schedule for one seed."""

    seed: int
    entries: tuple[ScheduleEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def without(self, index: int) -> "Schedule":
        """The same schedule minus the entry at ``index`` (for shrinking)."""
        return Schedule(
            seed=self.seed,
            entries=self.entries[:index] + self.entries[index + 1 :],
        )

    def truncated(self, length: int) -> "Schedule":
        """The schedule's first ``length`` entries."""
        return Schedule(seed=self.seed, entries=self.entries[:length])

    def to_python(self, indent: int = 0) -> str:
        """Eval-able Python source for this schedule."""
        pad = " " * indent
        inner = " " * (indent + 4)
        lines = [f"{pad}Schedule(", f"{inner}seed={self.seed},", f"{inner}entries=("]
        lines += [f"{inner}    {entry!r}," for entry in self.entries]
        lines += [f"{inner}),", f"{pad})"]
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class Action:
    """One registered chaos action: its group, draw weight, param draw."""

    group: str
    weight: float
    draw: Callable[..., dict]


#: ranks are reduced modulo the live population when an entry is applied.
_RANKS = 1_000_000
_SEEDS = 2**31 - 1


def _int(rng, low: int, high: int) -> int:
    return int(rng.integers(low, high))


def _real(rng, low: float, high: float) -> float:
    return round(float(rng.uniform(low, high)), 3)


def _no_params(rng, config) -> dict:
    return {}


def _rank(rng, config) -> dict:
    return {"rank": _int(rng, 0, _RANKS)}


#: every action the harness can apply: ``name -> (group, weight, draw)``.
#: Adding an action is one entry here plus one ``Interpreter._do_<name>``
#: handler.  Within ``core`` the weights favour the traffic actions
#: (queries, gossip) that *detect* divergence over the fault actions that
#: *cause* it, so most schedules both break and probe; the core order,
#: weights and draws are pinned by recorded goldens and reproducers.  A
#: feature group of total weight ``w`` inserts one of its actions at a
#: step with probability ``w / (w + core weight)``.
ACTIONS: dict[str, Action] = {
    "query_burst": Action("core", 5.0, lambda rng, c: {
        "n": _int(rng, 5, c.query_burst_max + 1),
        "workload_seed": _int(rng, 0, _SEEDS),
    }),
    "gossip": Action("core", 3.0, lambda rng, c: {"rounds": _int(rng, 1, 4)}),
    "publish": Action("core", 2.0, lambda rng, c: {
        "rank": _int(rng, 0, _RANKS),
        "category": _int(rng, 0, c.n_categories),
        "n_docs": _int(rng, 1, 4),
    }),
    "join": Action("core", 2.0, lambda rng, c: {
        "capacity": _int(rng, 1, 6),
        "category": _int(rng, 0, c.n_categories),
        "n_docs": _int(rng, 0, 3),
    }),
    "leave": Action("core", 1.5, _rank),
    "crash": Action("core", 1.5, _rank),
    "loss_ramp": Action("core", 1.5, lambda rng, c: {
        "target": _real(rng, 0.0, MAX_LOSS),
        "steps": _int(rng, 1, 5),
    }),
    "force_move": Action("core", 1.5, lambda rng, c: {
        "category": _int(rng, 0, c.n_categories),
        "target_rank": _int(rng, 0, _RANKS),
    }),
    "partition": Action("core", 1.0, lambda rng, c: {
        "fraction": _real(rng, 0.2, 0.5),
        "salt": _int(rng, 0, _RANKS),
    }),
    "heal": Action("core", 1.0, _no_params),
    "adapt": Action("core", 0.75, _no_params),
    # Drop only acks: every reliable message arrives, every receipt
    # confirmation may not — the pure duplicate-delivery regime.
    "ack_loss": Action("core", 0.75, lambda rng, c: {
        "probability": _real(rng, 0.1, 0.5),
    }),
    # Drop reliable request kinds hard enough to force retransmission
    # chains (and some give-ups) across many concurrent deliveries.
    "retry_storm": Action("core", 0.75, lambda rng, c: {
        "probability": _real(rng, 0.2, 0.6),
    }),
    # Cooldown tail only: weight 0, never drawn.
    "converge": Action("core", 0.0, _no_params),
    # One query compiled from a scenario spec (repro.scenario): its issue
    # time ``t``, requester, document and ``m``.  Weight 0, never drawn.
    "query": Action("core", 0.0, _no_params),
    # A synchronized burst of document retrievals concentrated on one
    # category — the hot-spot regime the admission policies exist for.
    "flash_crowd": Action("overload", 2.0, lambda rng, c: {
        "category": _int(rng, 0, c.n_categories),
        "n": _int(rng, 30, FLASH_CROWD_MAX + 1),
        "workload_seed": _int(rng, 0, _SEEDS),
    }),
    # A query burst whose size is scaled by the scenario engine's diurnal
    # factor at the schedule's own drawn phase point.
    "diurnal_burst": Action("scenario", 2.0, lambda rng, c: {
        "n": _int(rng, 5, DIURNAL_BURST_MAX + 1),
        "phase": _real(rng, 0.0, 1.0),
        "amplitude": _real(rng, 0.0, 1.0),
        "workload_seed": _int(rng, 0, _SEEDS),
    }),
    # Breaking news: reweight the harness's document-draw law so a small
    # hot set suddenly carries ``mass`` of future bursts.
    "skew_flip": Action("scenario", 1.0, lambda rng, c: {
        "mass": _real(rng, 0.1, 0.5),
        "n_hot": _int(rng, 1, 9),
        "flip_seed": _int(rng, 0, _SEEDS),
    }),
    # A node that joins with capacity but zero content.
    "free_rider_join": Action("scenario", 1.0, lambda rng, c: {
        "capacity": _int(rng, 1, 6),
    }),
    # Arm one live peer as bogus-responder or stale-gossip replayer.
    "misbehave": Action("scenario", 1.0, lambda rng, c: {
        "rank": _int(rng, 0, _RANKS),
        "mode": str(rng.choice(["bogus", "stale_gossip"])),
    }),
    # Correlated outage: one whole cluster drops off the network.
    "regional_partition": Action("scenario", 1.0, lambda rng, c: {
        "region": _int(rng, 0, c.n_clusters),
    }),
    # Flip the stored bytes of one chunk on one replica: the next fetch
    # that hits it must detect the hash mismatch, fail over, and push the
    # correct chunk back (read-repair).
    "corrupt_chunk": Action("content", 1.5, lambda rng, c: {
        "rank": _int(rng, 0, _RANKS),
        "doc_rank": _int(rng, 0, _RANKS),
        "chunk_rank": _int(rng, 0, 64),
    }),
    # Clean departure through the replica loop: unlike a crash, no last
    # copy may be lost.
    "graceful_shutdown": Action("content", 1.0, _rank),
    # Amnesia crash: volatile memory wiped, disk (journal, partial chunks,
    # corruption marks) kept — then recovery replays the snapshot+WAL and
    # must converge within one healing round.
    "power_loss": Action("recovery", 1.5, _rank),
    # Partition the network, let a stale owner try to reclaim a category
    # on the minority side, then heal and reconcile: the higher-epoch
    # owner must win (single-owner-per-epoch).
    "split_brain_heal": Action("recovery", 1.0, lambda rng, c: {
        "category": _int(rng, 0, c.n_categories),
        "fraction": _real(rng, 0.2, 0.5),
        "salt": _int(rng, 0, _RANKS),
    }),
}


def draw_requests(
    rng, law: TimeVaryingZipfSampler, t: float, count: int,
    doc_ids: list[int], pool: list[int],
) -> list[tuple[int, int]]:
    """``count`` ``(requester, doc id)`` requests at time ``t``: every
    document from ``law`` first, then every requester uniformly from
    ``pool`` — the draw order recorded schedules and goldens pin."""
    docs = law.sample(rng, t, count)
    requesters = rng.integers(0, len(pool), size=count)
    return [(pool[int(r)], doc_ids[int(d)]) for d, r in zip(docs, requesters)]


def _group_table(group: str) -> tuple[list[str], list[float], float]:
    """The group's drawable actions, their probabilities, total weight."""
    names = [
        name
        for name, action in ACTIONS.items()
        if action.group == group and action.weight > 0
    ]
    total = sum(ACTIONS[name].weight for name in names)
    return names, [ACTIONS[name].weight / total for name in names], total


def _draw_entry(
    step: int, names: list[str], probabilities: list[float], rng, config
) -> ScheduleEntry:
    action = names[int(rng.choice(len(names), p=probabilities))]
    return ScheduleEntry(
        step=step, action=action, params=ACTIONS[action].draw(rng, config)
    )


def generate_schedule(
    seed: int, config: ScenarioConfig | None = None
) -> Schedule:
    """Expand one seed into a complete fault schedule.

    Deterministic: each action group draws from its own named stream of
    the seed's :class:`~repro.sim.rng.RngRegistry`, so the same ``(seed,
    config)`` always yields the same schedule — and neither how the
    *world* consumes randomness nor which other groups are on ever
    perturbs a group's draws.  Inserted feature entries share the step
    number of the core entry they follow.
    """
    config = config if config is not None else ScenarioConfig()
    rngs = RngRegistry(root_seed=seed)
    core_rng = rngs.stream("chaos.schedule")
    core_names, core_probabilities, core_total = _group_table("core")
    extras = []
    for group in FEATURES:
        names, probabilities, total = _group_table(group)
        if group in config.features and names:  # "adaptive" has no actions
            rng = rngs.stream(f"chaos.schedule.{group}")
            rate = total / (total + core_total)
            extras.append((rng, names, probabilities, rate))

    entries: list[ScheduleEntry] = []
    for step in range(config.n_steps):
        entries.append(
            _draw_entry(step, core_names, core_probabilities, core_rng, config)
        )
        for rng, names, probabilities, rate in extras:
            if rng.random() < rate:
                entries.append(
                    _draw_entry(step, names, probabilities, rng, config)
                )

    # Cooldown tail: give every run a healed, loss-free window to settle
    # in, then demand convergence.  Without it, the convergence invariant
    # would flag every schedule that happens to end mid-partition.
    step = config.n_steps
    entries += [
        ScheduleEntry(step, "heal", {}),
        ScheduleEntry(step + 1, "loss_ramp", {"target": 0.0, "steps": 1}),
        ScheduleEntry(step + 2, "gossip", {"rounds": COOLDOWN_GOSSIP_ROUNDS}),
        ScheduleEntry(step + 3, "converge", {}),
    ]
    return Schedule(seed=seed, entries=tuple(entries))
