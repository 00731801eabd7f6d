"""Deterministic expansion of a :class:`ScenarioSpec` into events.

:func:`generate_events` turns a spec plus a built world into an
:class:`EventStream`: timestamped queries plus the spec's controls
(misbehaviour, regional partitions, heals) as a chaos
:class:`~repro.chaos.scenario.Schedule`.

Determinism contract
--------------------
The stream is a pure function of ``(spec, instance)``:

* the **stationary path** (no diurnal/drift/flips) consumes its RNG in
  exactly the :func:`~repro.model.workload.make_query_workload` order, so
  a stationary spec's queries are *identical* to today's workloads;
* the **modulated path** discretizes time into ``spec.window`` slices and
  issues a deterministic ``round(rate * window)`` queries per slice and
  region — no Poisson draws, so counts never depend on float summation
  order;
* controls use their own salted seed streams, independent of the query
  stream (adding a partition never perturbs the queries).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.chaos.scenario import Schedule, ScheduleEntry
from repro.model.system import SystemInstance
from repro.model.workload import (
    Query,
    QueryWorkload,
    diurnal_factor,
    make_query_workload,
)
from repro.model.zipf import TimeVaryingZipfSampler
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "EventStream",
    "rate_at",
    "generate_events",
    "designate_free_riders",
]

#: salts for the engine's independent seed streams — each deterministic
#: sub-generator seeds ``default_rng([spec.seed, SALT])`` so enabling one
#: modulator never shifts another's draws.
_SALT_FLIPS = 1
_SALT_MISBEHAVE = 2
_SALT_FREE_RIDERS = 3

#: float guard for the window loop's termination test.
_EPS = 1e-12


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


@dataclass(frozen=True)
class EventStream:
    """The expanded scenario: timestamped queries plus controls."""

    workload: QueryWorkload
    #: issue time of each query, aligned with ``workload.queries``.
    times: tuple[float, ...]
    #: chaos entries whose ``step`` is the number of queries issued
    #: before the entry applies.
    controls: Schedule

    def __len__(self) -> int:
        return len(self.workload.queries)


def rate_at(spec: ScenarioSpec, t: float, region: int = 0) -> float:
    """Instantaneous per-region request rate at time ``t``.

    Non-negative for every valid spec: the diurnal factor is
    ``1 + amplitude * sin(...)`` with ``amplitude <= 1`` by construction,
    so the product cannot go below zero (the final ``max`` only absorbs
    float rounding).
    """
    rate = spec.base_rate / spec.n_regions
    diurnal = spec.diurnal
    if diurnal is not None:
        offset = 0.0
        if diurnal.regional_offsets:
            offset = diurnal.regional_offsets[
                region % len(diurnal.regional_offsets)
            ]
        rate *= diurnal_factor(
            diurnal.amplitude, t / diurnal.period + diurnal.phase + offset
        )
    return max(0.0, rate)


def _doc_sampler(
    spec: ScenarioSpec, instance: SystemInstance
) -> tuple[list[int], TimeVaryingZipfSampler]:
    """The (doc ids, time-varying law) pair behind the modulated path."""
    doc_ids = sorted(instance.documents)
    popularity = np.array(
        [instance.documents[doc_id].popularity for doc_id in doc_ids]
    )
    flips = []
    flip_rng = _rng(spec.seed, _SALT_FLIPS)
    for flip in spec.flips:
        n_hot = min(flip.n_hot, len(doc_ids))
        hot = flip_rng.choice(len(doc_ids), size=n_hot, replace=False)
        flips.append((flip.at, flip.mass, tuple(int(i) for i in hot)))
    drift = spec.drift.ranks_per_unit if spec.drift is not None else 0.0
    sampler = TimeVaryingZipfSampler(
        popularity, drift_ranks_per_unit=drift, flips=tuple(flips)
    )
    return doc_ids, sampler


def _region_members(spec: ScenarioSpec, instance: SystemInstance) -> list[list[int]]:
    """Region ``r`` holds the nodes with ``node_id % n_regions == r``."""
    regions: list[list[int]] = [[] for _ in range(spec.n_regions)]
    for node_id in sorted(instance.nodes):
        regions[node_id % spec.n_regions].append(node_id)
    return regions


def _modulated_queries(
    spec: ScenarioSpec, instance: SystemInstance
) -> tuple[QueryWorkload, tuple[float, ...]]:
    """The non-stationary path: window-discretized, rate-modulated draws."""
    rng = np.random.default_rng(spec.seed)
    doc_ids, sampler = _doc_sampler(spec, instance)
    regions = _region_members(spec, instance)
    documents = instance.documents

    queries: list[Query] = []
    times: list[float] = []
    query_id = 0
    t = 0.0
    while t < spec.duration - _EPS:
        window = min(spec.window, spec.duration - t)
        mid = t + window / 2.0
        for region_id, members in enumerate(regions):
            if not members:
                continue
            count = int(round(rate_at(spec, mid, region_id) * window))
            if count <= 0:
                continue
            choices = sampler.sample(rng, mid, count)
            requester_idx = rng.integers(0, len(members), size=count)
            for j in range(count):
                doc = documents[doc_ids[int(choices[j])]]
                queries.append(
                    Query(
                        query_id=query_id,
                        requester_id=members[int(requester_idx[j])],
                        target_doc_id=doc.doc_id,
                        category_ids=doc.categories,
                        m=spec.m,
                    )
                )
                times.append(t + (j + 0.5) * window / count)
                query_id += 1
        t += window

    # Regions interleave within a window; sort jointly so issue times are
    # non-decreasing (ties broken by generation order — deterministic).
    order = sorted(range(len(queries)), key=lambda i: (times[i], i))
    return (
        QueryWorkload(queries=[queries[i] for i in order]),
        tuple(times[i] for i in order),
    )


def _controls(
    spec: ScenarioSpec, instance: SystemInstance, times: tuple[float, ...]
) -> Schedule:
    """The spec's controls as chaos entries, in time order.

    A control at time ``t`` takes as its ``step`` the number of queries
    issued before ``t``.  A misbehaviour pick's ``rank`` is its index among the
    sorted node ids; a partitioned region is a cluster, as in chaos.
    """
    timed: list[tuple[float, str, dict]] = []
    misbehavior = spec.misbehavior
    if misbehavior is not None and (
        misbehavior.n_bogus or misbehavior.n_stale_gossip
    ):
        rng = _rng(spec.seed, _SALT_MISBEHAVE)
        n_nodes = len(instance.nodes)
        total = min(misbehavior.n_bogus + misbehavior.n_stale_gossip, n_nodes)
        picks = rng.choice(n_nodes, size=total, replace=False)
        for k, index in enumerate(picks):
            mode = "bogus" if k < misbehavior.n_bogus else "stale_gossip"
            timed.append(
                (misbehavior.at, "misbehave", {"rank": int(index), "mode": mode})
            )
    for partition in spec.partitions:
        timed.append(
            (partition.at, "regional_partition", {"region": partition.region})
        )
        timed.append((partition.at + partition.duration, "heal", {}))
    timed.sort(key=lambda control: control[:2])
    return Schedule(
        seed=spec.seed,
        entries=tuple(
            ScheduleEntry(step=bisect_left(times, t), action=action, params=params)
            for t, action, params in timed
        ),
    )


def generate_events(
    spec: ScenarioSpec, instance: SystemInstance
) -> EventStream:
    """Expand ``spec`` against ``instance`` into an :class:`EventStream`.

    Stationary specs (no diurnal/drift/flips) delegate to
    :func:`~repro.model.workload.make_query_workload` with the spec's seed
    — same RNG stream, same queries — and space issues evenly over the
    duration.  Modulated specs go through the windowed path.
    """
    if spec.is_stationary:
        workload = make_query_workload(
            instance, spec.n_queries, seed=spec.seed, m=spec.m
        )
        n = len(workload.queries)
        interval = spec.duration / n if n else 0.0
        times = tuple(i * interval for i in range(n))
    else:
        workload, times = _modulated_queries(spec, instance)
    return EventStream(
        workload=workload,
        times=times,
        controls=_controls(spec, instance, times),
    )


def designate_free_riders(
    instance: SystemInstance, fraction: float, seed: int
) -> tuple[int, ...]:
    """Turn a seeded ``fraction`` of nodes into free riders, in place.

    The chosen nodes hand every contribution to the remaining
    contributors (round-robin), so documents and per-category popularity
    are conserved and ``instance.validate()`` still passes; afterwards
    each chosen node has ``Node.is_free_rider`` true, no
    ``node_categories`` entry, and therefore no cluster membership — it
    consumes queries while contributing no capacity or documents.

    Returns the chosen node ids (sorted).  At least one contributor
    always remains.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must be in [0, 1), got {fraction}")
    node_ids = sorted(instance.nodes)
    n_free = min(int(round(len(node_ids) * fraction)), len(node_ids) - 1)
    if n_free <= 0:
        return ()
    rng = _rng(seed, _SALT_FREE_RIDERS)
    picks = rng.choice(len(node_ids), size=n_free, replace=False)
    free = sorted(node_ids[int(index)] for index in picks)
    free_set = set(free)
    recipients = [
        node_id for node_id in node_ids if node_id not in free_set
    ]
    next_recipient = 0
    for node_id in free:
        node = instance.nodes[node_id]
        for doc_id in list(node.contributed_doc_ids):
            recipient_id = recipients[next_recipient % len(recipients)]
            next_recipient += 1
            recipient = instance.nodes[recipient_id]
            recipient.contribute(doc_id)
            cats = instance.node_categories.setdefault(recipient_id, [])
            for category_id in instance.documents[doc_id].categories:
                if category_id not in cats:
                    cats.append(category_id)
                    cats.sort()
            node.stored_doc_ids.discard(doc_id)
        node.contributed_doc_ids.clear()
        instance.node_categories.pop(node_id, None)
    return tuple(free)
