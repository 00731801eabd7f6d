"""Demand-adaptive replication: grow and shrink replica sets under load.

The paper's top-m replication fixes each category's replica degree per
adaptation round, and the overload machinery (bounded service queues,
admission control) *sheds* excess demand but never *creates capacity*:
under a sustained flash crowd the system stays saturated, rejecting the
same hot queries forever.  This module closes that loop with a small
control loop per category, after the replica-management literature (QoS-
aware replica placement; replica-count adaptation vs request load):

**Signals.**  Each round reads, per category, the demand observed since
the previous round:

* served hits — the per-category ``hit_counters`` summed over all peers
  (cached copies serve through the same path, so cache hit rates are
  part of this signal);
* shed queries — each live holder's :class:`~repro.overlay.service.ServiceQueue`
  shed delta, attributed to categories in proportion to the holder's own
  hit-counter mix (a shed query never increments a hit counter, so
  without this term a fully saturated replica set would look *idle*).

Pressure is demand per live replica::

    pressure = (hits + SHED_WEIGHT * shed) / max(1, live_holders)

**Hysteresis.**  Grow fast, shrink slowly: every round above
``grow_threshold`` adds :data:`GROW_STEP` replicas (up to
:data:`MAX_REPLICAS` managed ones per category); only
:data:`SHRINK_AFTER` consecutive rounds below ``shrink_threshold``
start removal, and then managed replicas are retired one per round —
so a transient lull never tears down capacity a flash crowd still needs,
and replica counts return to baseline once the crowd passes.

**Placement.**  New replicas carry the category's :data:`DOCS_PER_REPLICA`
hottest documents and go to live members of its cluster that do not
already *durably* hold them, preferring high ``capacity_units`` first
and short service queues second
(QoS-aware placement: fast nodes that are not already busy).  Missing
documents are pulled from live source holders via the ordinary
``transfer_request`` / ``transfer_data`` exchange, so replica creation
pays real transfer bytes and arriving copies register in the holder
directory like any store.  A document the target holds only as an
evictable *cached* copy is promoted in place instead
(``peer.queries.cache.discard``): the bytes are already
there, so the manager pins the copy out of the cache's eviction
bookkeeping and takes ownership — shrink later drops it like any other
managed replica.

Everything is off by default (``ReplicationConfig(enabled=False)``):
no manager is constructed, no metrics registered, no RNG consumed —
deterministic snapshots of non-adaptive runs stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.system import P2PSystem

__all__ = ["ReplicationConfig", "ReplicationManager", "RoundReport"]

#: consecutive cold rounds before the first shrink (shrink slowly).
SHRINK_AFTER = 3
#: replicas added per hot round (grow fast).
GROW_STEP = 2
#: ceiling on *managed* replicas per category.
MAX_REPLICAS = 8
#: hottest documents of the category shipped to each new replica.
DOCS_PER_REPLICA = 4
#: weight of one shed query relative to one served hit in pressure.
SHED_WEIGHT = 4.0


@dataclass(frozen=True, slots=True)
class ReplicationConfig:
    """Knobs for the demand-adaptive replication loop (off by default)."""

    #: master switch; off constructs no manager and registers no metrics.
    enabled: bool = False
    #: per-replica demand (hits + weighted sheds per round) above which a
    #: category counts as hot.
    grow_threshold: float = 8.0
    #: per-replica demand below which a category counts as cold.
    shrink_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.grow_threshold <= self.shrink_threshold:
            raise ValueError(
                f"grow_threshold ({self.grow_threshold}) must exceed "
                f"shrink_threshold ({self.shrink_threshold})"
            )


@dataclass(frozen=True, slots=True)
class RoundReport:
    """What one control round observed and did."""

    round_id: int
    #: category -> per-replica pressure this round.
    pressure: dict[int, float] = field(default_factory=dict)
    #: category -> node ids that received new replicas this round.
    grown: dict[int, tuple[int, ...]] = field(default_factory=dict)
    #: category -> node ids whose managed replicas were retired.
    shrunk: dict[int, tuple[int, ...]] = field(default_factory=dict)


class ReplicationManager:
    """Per-category replica-count control loop over one :class:`P2PSystem`.

    Round-driven like gossip and the failure detector: drivers call
    :meth:`P2PSystem.run_replication_round` between workload windows — a
    standing periodic event would break the run-to-quiescence contract.
    """

    round_name = "replication"

    def __init__(self, system: "P2PSystem", config: ReplicationConfig) -> None:
        self.system = system
        self.config = config
        self.rounds_run = 0
        #: category -> node -> doc ids this manager placed there.
        self._managed: dict[int, dict[int, set[int]]] = {}
        #: consecutive cold rounds per category (the shrink hysteresis).
        self._cold_rounds: dict[int, int] = {}
        #: previous cumulative totals, for per-round deltas.
        self._last_hits: dict[int, int] = {}
        self._last_shed: dict[int, int] = {}
        #: category -> sorted doc ids (static world content map).
        by_category: dict[int, list[int]] = {}
        for doc_id, doc in sorted(system.instance.documents.items()):
            for category_id in doc.categories:
                by_category.setdefault(category_id, []).append(doc_id)
        self._category_docs = {
            category_id: tuple(doc_ids)
            for category_id, doc_ids in by_category.items()
        }
        # Process-wide totals, shared by every enabled manager.
        self._c_grown = obs.counter("replication.replicas_added")
        self._c_shrunk = obs.counter("replication.replicas_removed")
        self._g_managed = obs.gauge("replication.managed_replicas")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def replica_count(self, category_id: int) -> int:
        """Managed replicas currently placed for one category."""
        return len(self._managed.get(category_id, ()))

    def managed_view(self) -> dict[int, dict[int, set[int]]]:
        """Copy of category -> node -> managed doc ids (for invariants)."""
        return {
            category_id: {node: set(docs) for node, docs in nodes.items()}
            for category_id, nodes in sorted(self._managed.items())
        }

    def total_managed(self) -> int:
        return sum(len(nodes) for nodes in self._managed.values())

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------
    def _delta(self, last: dict[int, int], key: int, current: int) -> int:
        """Non-negative delta vs the stored watermark (reset-tolerant).

        ``reset_hit_counters`` can send a cumulative total backwards; the
        delta then restarts from the current value instead of going
        negative.
        """
        previous = last.get(key, 0)
        last[key] = current
        return current if current < previous else current - previous

    def _read_signals(self) -> tuple[dict[int, float], dict[int, int]]:
        """Per-category demand deltas and live-holder counts."""
        system = self.system
        hits_now: dict[int, int] = {}
        shed_mix: dict[int, float] = {}
        for peer in system.alive_peers():
            for category_id, hits in peer.hit_counters.items():
                hits_now[category_id] = hits_now.get(category_id, 0) + hits
            snapshot = peer.service_snapshot()
            if snapshot is None:
                continue
            shed_delta = self._delta(
                self._last_shed, peer.node_id, snapshot["shed"]
            )
            if not shed_delta:
                continue
            # Attribute the node's sheds to categories in proportion to
            # the demand mix it actually served.
            local_total = sum(peer.hit_counters.values())
            if not local_total:
                continue
            for category_id, hits in peer.hit_counters.items():
                shed_mix[category_id] = (
                    shed_mix.get(category_id, 0.0)
                    + shed_delta * hits / local_total
                )
        demand: dict[int, float] = {}
        for category_id in self._category_docs:
            hits_delta = self._delta(
                self._last_hits, category_id, hits_now.get(category_id, 0)
            )
            demand[category_id] = (
                hits_delta
                + SHED_WEIGHT * shed_mix.get(category_id, 0.0)
            )
        # Union first, then one liveness test per distinct node: a
        # category's documents share most of their holders.
        holders = system.ledger.holders
        is_alive = system.network.is_alive
        live_holders: dict[int, int] = {}
        for category_id, doc_ids in self._category_docs.items():
            nodes = set().union(*map(holders, doc_ids))
            live_holders[category_id] = sum(map(is_alive, nodes))
        return demand, live_holders

    # ------------------------------------------------------------------
    # the control round
    # ------------------------------------------------------------------
    def run_round(self, round_id: int | None = None) -> RoundReport:
        """One observe -> decide -> act iteration over every category.

        The caller is expected to drain the simulation afterwards
        (:meth:`P2PSystem.run_replication_round` does) so the pulled
        replica transfers land before the next observation window.
        """
        if round_id is None:
            round_id = self.rounds_run
        self.rounds_run += 1
        demand, live_holders = self._read_signals()
        report = RoundReport(round_id=round_id)
        for category_id in sorted(self._category_docs):
            pressure = demand.get(category_id, 0.0) / max(
                1, live_holders.get(category_id, 0)
            )
            report.pressure[category_id] = pressure
            if pressure <= self.config.shrink_threshold:
                cold = self._cold_rounds[category_id] = (
                    self._cold_rounds.get(category_id, 0) + 1
                )
                if cold >= SHRINK_AFTER:
                    shrunk = self._shrink(category_id)
                    if shrunk:
                        report.shrunk[category_id] = shrunk
                continue
            # Hot or in the hysteresis band: the cold streak ends.
            self._cold_rounds[category_id] = 0
            if pressure >= self.config.grow_threshold:
                grown = self._grow(category_id)
                if grown:
                    report.grown[category_id] = grown
        self._g_managed.set(self.total_managed())
        return report

    def _hot_docs(self, category_id: int) -> list[int]:
        """The category's still-shippable documents, hottest first.

        Holder count is the demand proxy: caching and earlier grow
        rounds concentrate copies on exactly the documents the crowd is
        asking for.  Documents every live cluster member already holds
        *durably* are excluded — the baseline plan replicates the
        statically hottest content cluster-wide, and those copies leave
        no placement with anything to ship.  A copy held only in a cache
        stays eligible (growing onto it promotes the copy in place).
        Ties break on doc id for determinism.
        """
        system = self.system
        holders = system.ledger.holders
        cluster_id = int(system.assignment.category_to_cluster[category_id])
        members = system.peers_in_cluster(cluster_id)

        def shippable(doc_id: int) -> bool:
            return any(
                doc_id not in peer.docs or peer.queries.cache.owns(doc_id)
                for peer in members
            )

        doc_ids = self._category_docs.get(category_id, ())
        ranked = sorted(doc_ids, key=lambda d: (-len(holders(d)), d))
        # Lazy: stop at the first ``DOCS_PER_REPLICA`` shippable documents.
        return list(islice(filter(shippable, ranked), DOCS_PER_REPLICA))

    def _placement_candidates(self, category_id: int, doc_ids):
        """Cluster members able to host new copies, best placed first."""
        system = self.system
        cluster_id = int(
            system.assignment.category_to_cluster[category_id]
        )
        managed = self._managed.get(category_id, {})
        wanted = set(doc_ids)
        candidates = []
        for peer in system.peers_in_cluster(cluster_id):
            if peer.node_id in managed:
                continue
            if all(
                doc_id in peer.docs and not peer.queries.cache.owns(doc_id)
                for doc_id in wanted
            ):
                continue  # durably holds everything worth shipping
            snapshot = peer.service_snapshot()
            depth = 0 if snapshot is None else (
                snapshot["depth"] + (1 if snapshot["in_service"] else 0)
            )
            candidates.append((-peer.capacity_units, depth, peer.node_id))
        candidates.sort()
        return [node_id for _, _, node_id in candidates]

    def _grow(self, category_id: int) -> tuple[int, ...]:
        """Place up to ``GROW_STEP`` new managed replicas for a category."""
        system = self.system
        managed = self._managed.setdefault(category_id, {})
        room = MAX_REPLICAS - len(managed)
        if room <= 0:
            return ()
        doc_ids = self._hot_docs(category_id)
        if not doc_ids:
            return ()
        placed = []
        for node_id in self._placement_candidates(category_id, doc_ids):
            if len(placed) >= min(GROW_STEP, room):
                break
            target = system.peer(node_id)
            if target is None:
                continue
            # Per document: a cached copy is *promoted* in place (pinned
            # out of the cache's eviction bookkeeping — the bytes are
            # already there); a durably held copy (contribution, earlier
            # placement) is not ours to manage; everything else is pulled
            # from its lowest-id live holder.
            pulls: dict[int, list[int]] = {}
            pulled: set[int] = set()
            for doc_id in doc_ids:
                if doc_id in target.docs:
                    if target.queries.cache.discard(doc_id):
                        pulled.add(doc_id)
                    continue
                sources = [
                    holder
                    for holder in system.ledger.live_holders(doc_id)
                    if holder != node_id
                ]
                if sources:
                    pulls.setdefault(sources[0], []).append(doc_id)
                    pulled.add(doc_id)
            if not pulled:
                continue
            for source_id, wanted in sorted(pulls.items()):
                target.adaptation.pull_documents(source_id, category_id, wanted)
            managed[node_id] = pulled
            placed.append(node_id)
            self._c_grown.inc()
        return tuple(placed)

    def _shrink(self, category_id: int) -> tuple[int, ...]:
        """Retire one managed replica (the weakest-placed, slow shrink)."""
        managed = self._managed.get(category_id)
        if not managed:
            return ()
        system = self.system
        # Retire lowest capacity first (the reverse of placement order);
        # dead nodes are forgotten without drops (their disk is dark).
        def retire_key(node_id: int) -> tuple:
            peer = system.peers[node_id]
            return (peer.capacity_units, -node_id)

        node_id = min(sorted(managed), key=retire_key)
        doc_ids = managed.pop(node_id)
        if not managed:
            self._managed.pop(category_id, None)
        self._c_shrunk.inc()
        if not system.network.is_alive(node_id):
            return (node_id,)
        peer = system.peers[node_id]
        for doc_id in sorted(doc_ids):
            # A doc may since have been re-stored as a cached copy or by
            # another manager decision; only drop what is still present
            # and not separately cache-owned.
            if doc_id in peer.docs and not peer.queries.cache.owns(doc_id):
                peer.drop_document(doc_id)
        return (node_id,)
