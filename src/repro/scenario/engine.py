"""Deterministic compilation of a :class:`ScenarioSpec` into a schedule.

:func:`generate_events` turns a spec plus a built world into one
time-ordered chaos :class:`~repro.chaos.scenario.Schedule`: a ``query``
entry per request (issue time, requester, document, ``m``) and the spec's
controls (misbehaviour, regional partitions, heals), each control before
the first query issued at or after its time.

Determinism contract
--------------------
The schedule is a pure function of ``(spec, instance)``:

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

import numpy as np

from repro.chaos.scenario import Schedule, ScheduleEntry, draw_requests
from repro.model.system import SystemInstance
from repro.model.workload import diurnal_factor, make_query_workload
from repro.model.zipf import TimeVaryingZipfSampler
from repro.scenario.spec import ScenarioSpec

__all__ = [
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


def _requests(
    spec: ScenarioSpec, instance: SystemInstance
) -> list[tuple[float, int, int]]:
    """The spec's ``(time, requester, doc id)`` requests, in draw order.

    Stationary specs draw through ``make_query_workload`` and space the
    requests evenly; modulated specs draw window by window, region by
    region, so regions interleave in time within a window.
    """
    if spec.is_stationary:
        workload = make_query_workload(
            instance, spec.n_queries, seed=spec.seed, m=spec.m
        )
        interval = spec.duration / max(len(workload.queries), 1)
        return [
            (i * interval, query.requester_id, query.target_doc_id)
            for i, query in enumerate(workload.queries)
        ]
    rng = np.random.default_rng(spec.seed)
    doc_ids, sampler = _doc_sampler(spec, instance)
    regions = _region_members(spec, instance)
    requests = []
    t = 0.0
    while t < spec.duration - _EPS:
        window = min(spec.window, spec.duration - t)
        mid = t + window / 2.0
        for region_id, members in enumerate(regions):
            count = int(round(rate_at(spec, mid, region_id) * window))
            if not members or count <= 0:
                continue
            requests += [
                (t + (j + 0.5) * window / count, requester, doc)
                for j, (requester, doc) in enumerate(
                    draw_requests(rng, sampler, mid, count, doc_ids, members)
                )
            ]
        t += window
    return requests


def _controls(
    spec: ScenarioSpec, instance: SystemInstance
) -> list[tuple[float, int, str, dict]]:
    """The spec's controls as ``(time, 0, action, params)`` chaos entries.

    The 0 sorts a control before a query (1) issued at the same time.  A
    misbehaving peer is drawn among the contributors — a free rider holds
    no document and is routed no query, so it could not misbehave — and
    its ``rank`` is its index among the sorted node ids; a partitioned
    region is a cluster, as in chaos.
    """
    timed: list[tuple[float, int, str, dict]] = []
    misbehavior = spec.misbehavior
    if misbehavior is not None and (
        misbehavior.n_bogus or misbehavior.n_stale_gossip
    ):
        rng = _rng(spec.seed, _SALT_MISBEHAVE)
        ranks = [
            rank
            for rank, node_id in enumerate(sorted(instance.nodes))
            if not instance.nodes[node_id].is_free_rider
        ]
        total = min(misbehavior.n_bogus + misbehavior.n_stale_gossip, len(ranks))
        picks = rng.choice(len(ranks), size=total, replace=False)
        for k, index in enumerate(picks):
            mode = "bogus" if k < misbehavior.n_bogus else "stale_gossip"
            params = {"rank": ranks[index], "mode": mode}
            timed.append((misbehavior.at, 0, "misbehave", params))
    for partition in spec.partitions:
        params = {"region": partition.region}
        timed.append((partition.at, 0, "regional_partition", params))
        timed.append((partition.at + partition.duration, 0, "heal", {}))
    return timed


def generate_events(spec: ScenarioSpec, instance: SystemInstance) -> Schedule:
    """Compile ``spec`` against ``instance`` into one time-ordered schedule.

    Stationary specs (no diurnal/drift/flips) delegate to
    :func:`~repro.model.workload.make_query_workload` with the spec's seed
    — same RNG stream, same queries — and space issues evenly over the
    duration.  Modulated specs go through the windowed path.

    Entries are sorted by time (a stable sort: equal-time queries keep
    their draw order); at equal time controls come first, ordered by
    action name.  An entry's ``step`` is the number of queries before it.
    """
    queries = [
        (t, 1, "query", {"t": t, "requester": requester, "doc": doc, "m": spec.m})
        for t, requester, doc in _requests(spec, instance)
    ]
    timed = sorted(_controls(spec, instance) + queries, key=lambda e: e[:3])
    entries, n_queries = [], 0
    for _, is_query, action, params in timed:
        entries.append(ScheduleEntry(n_queries, action, params))
        n_queries += is_query
    return Schedule(seed=spec.seed, entries=tuple(entries))


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
