"""Declarative scenario specifications (frozen dataclasses).

A :class:`ScenarioSpec` describes a complete non-stationary workload as
data: a base request rate over a duration, optionally modulated by a
diurnal cycle (with per-region time-zone offsets), popularity drift, and
breaking-news skew flips, plus environment stressors — free-riding nodes,
misbehaving peers, and correlated regional partitions.

Specs are the engine's only input besides the world itself
(:mod:`repro.scenario.engine` states the determinism contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "DiurnalSpec",
    "DriftSpec",
    "SkewFlipSpec",
    "FreeRiderSpec",
    "MisbehaviorSpec",
    "RegionalPartitionSpec",
    "ScenarioSpec",
    "standard_matrix",
]

#: simulated seconds and queries per second of every standard-matrix spec.
MATRIX_DURATION = 8.0
MATRIX_BASE_RATE = 60.0


@dataclass(frozen=True, slots=True)
class DiurnalSpec:
    """Sinusoidal rate modulation: ``1 + amplitude * sin(2π(t/period + φ))``.

    ``amplitude`` is capped at 1 so the instantaneous rate can never go
    negative — non-negativity holds by construction, not by clamping.
    ``regional_offsets`` are per-region phase shifts in cycle fractions
    (0.25 = a quarter period "time zone" east); region ``r`` uses offset
    ``regional_offsets[r % len(regional_offsets)]``.
    """

    period: float = 24.0
    amplitude: float = 0.5
    phase: float = 0.0
    regional_offsets: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "regional_offsets", tuple(self.regional_offsets)
        )
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1], got {self.amplitude}"
            )


@dataclass(frozen=True, slots=True)
class DriftSpec:
    """Popularity drift: the hot documents rotate through the rank order.

    ``ranks_per_unit`` positions per time unit; a pure permutation of the
    popularity vector, so total mass is conserved by construction.
    """

    ranks_per_unit: float = 1.0

    def __post_init__(self) -> None:
        if self.ranks_per_unit < 0:
            raise ValueError(
                f"ranks_per_unit must be non-negative, "
                f"got {self.ranks_per_unit}"
            )


@dataclass(frozen=True, slots=True)
class SkewFlipSpec:
    """Breaking news at time ``at``: ``n_hot`` documents suddenly carry
    ``mass`` of all requests (the law becomes the convex mixture
    ``(1 - mass) * old + mass * uniform(hot set)``)."""

    at: float
    mass: float = 0.3
    n_hot: int = 5

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"at must be non-negative, got {self.at}")
        if not 0.0 < self.mass < 1.0:
            raise ValueError(f"mass must be in (0, 1), got {self.mass}")
        if self.n_hot < 1:
            raise ValueError(f"n_hot must be positive, got {self.n_hot}")


@dataclass(frozen=True, slots=True)
class FreeRiderSpec:
    """Fraction of nodes that consume queries but contribute nothing.

    Applied at world-construction time via
    :func:`repro.scenario.engine.designate_free_riders`: the chosen nodes
    hand their contributions to the remaining contributors (documents are
    conserved) and end up with ``Node.is_free_rider`` true.
    """

    fraction: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError(
                f"fraction must be in [0, 1), got {self.fraction}"
            )


@dataclass(frozen=True, slots=True)
class MisbehaviorSpec:
    """Arm misbehaving peers at time ``at``.

    ``n_bogus`` peers start answering every query with fabricated content
    (caught by the requester-side integrity check and, if anything slips
    through, the ``response-integrity`` invariant); ``n_stale_gossip``
    peers replay a frozen DCRT digest forever (bounded by the gossip
    merge's move-counter ordering).
    """

    at: float = 0.0
    n_bogus: int = 0
    n_stale_gossip: int = 0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"at must be non-negative, got {self.at}")
        if self.n_bogus < 0 or self.n_stale_gossip < 0:
            raise ValueError("peer counts must be non-negative")


@dataclass(frozen=True, slots=True)
class RegionalPartitionSpec:
    """Correlated outage: cluster ``region`` (modulo the cluster count)
    drops off the network at ``at`` and heals ``duration`` later."""

    at: float
    duration: float
    region: int = 0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"at must be non-negative, got {self.at}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.region < 0:
            raise ValueError(f"region must be non-negative, got {self.region}")


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """One complete, seeded, replayable workload scenario.

    ``base_rate`` is the total request rate (queries per time unit across
    all regions); nodes belong to diurnal region ``node_id % n_regions``.
    The rate modulators discretize time into ``window``-sized slices.
    """

    name: str
    seed: int = 0
    duration: float = 10.0
    base_rate: float = 50.0
    m: int = 1
    n_regions: int = 1
    window: float = 1.0
    diurnal: DiurnalSpec | None = None
    drift: DriftSpec | None = None
    flips: tuple[SkewFlipSpec, ...] = ()
    free_riders: FreeRiderSpec | None = None
    misbehavior: MisbehaviorSpec | None = None
    partitions: tuple[RegionalPartitionSpec, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "flips", tuple(self.flips))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        if not self.name:
            raise ValueError("name must be non-empty")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.base_rate < 0:
            raise ValueError(
                f"base_rate must be non-negative, got {self.base_rate}"
            )
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if self.n_regions < 1:
            raise ValueError(
                f"n_regions must be positive, got {self.n_regions}"
            )
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")

    @property
    def is_stationary(self) -> bool:
        """No rate/skew modulation: the query stream is exactly
        :func:`repro.model.workload.make_query_workload` output."""
        return self.diurnal is None and self.drift is None and not self.flips

    @property
    def n_queries(self) -> int:
        """Query count of the stationary path (``base_rate * duration``)."""
        return int(round(self.base_rate * self.duration))


def standard_matrix(seed: int = 7) -> tuple[ScenarioSpec, ...]:
    """The SCENARIO experiment's canonical 4-spec matrix.

    One stationary baseline plus one spec per modulation family, all
    driven from the same root ``seed`` so a matrix run is one number to
    reproduce.
    """
    duration, base_rate = MATRIX_DURATION, MATRIX_BASE_RATE
    return (
        ScenarioSpec(
            name="stationary",
            seed=seed,
            duration=duration,
            base_rate=base_rate,
        ),
        ScenarioSpec(
            name="diurnal-regional",
            seed=seed + 1,
            duration=duration,
            base_rate=base_rate,
            n_regions=4,
            diurnal=DiurnalSpec(
                period=duration / 2.0,
                amplitude=0.8,
                regional_offsets=(0.0, 0.25, 0.5, 0.75),
            ),
            partitions=(
                RegionalPartitionSpec(
                    at=duration * 0.25, duration=duration * 0.2, region=1
                ),
            ),
        ),
        ScenarioSpec(
            name="drift-flip",
            seed=seed + 2,
            duration=duration,
            base_rate=base_rate,
            drift=DriftSpec(ranks_per_unit=3.0),
            flips=(SkewFlipSpec(at=duration / 2.0, mass=0.4, n_hot=4),),
        ),
        ScenarioSpec(
            name="freeride-misbehave",
            seed=seed + 3,
            duration=duration,
            base_rate=base_rate,
            free_riders=FreeRiderSpec(fraction=0.25),
            misbehavior=MisbehaviorSpec(
                at=duration / 3.0, n_bogus=1, n_stale_gossip=1
            ),
        ),
    )
