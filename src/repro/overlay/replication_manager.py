"""The one replica loop: how many copies each document has, and where.

Each document's **target** is ``floor + extra``: the floor is
``ContentConfig.replication_floor`` (1 without content), the extra the
demand term :class:`ReplicationManager` keeps (0 when it is off).  The
**count** is the live holders with an intact copy, minus a departing peer;
copies the loop did not place meet the floor, copies it placed meet the
extra.  The **ranking** is highest ``capacity_units``, then node id.
:func:`converge` moves each document toward its target: floor copies by
verified fetch (by pull without content), in the home cluster or else
anywhere; extra copies by ``transfer_request`` pull, in the home cluster;
and it drops only copies it placed.  The ``healing`` and ``replication``
rounds and :func:`graceful_shutdown` call it; the callers drain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.system import P2PSystem

__all__ = ["ReplicationConfig", "ReplicationManager", "RoundReport", "converge"]

#: consecutive cold rounds before the first shrink (shrink slowly).
SHRINK_AFTER = 3
#: extra copies a hot round adds to each chosen document (grow fast).
GROW_STEP = 2
#: ceiling on a document's extra, and so on the copies the loop placed.
MAX_REPLICAS = 8
#: hottest documents of a hot category whose extra a round raises.
DOCS_PER_REPLICA = 4
#: weight of one shed query relative to one served hit in pressure.
SHED_WEIGHT = 4.0
#: loop passes a graceful shutdown runs before it gives up.
HANDOFF_ROUNDS = 3


def _rank(peer) -> tuple:
    return (-peer.capacity_units, peer.node_id)


def home_candidates(system: "P2PSystem", doc_id: int, category_id: int) -> list:
    """Live members of the category's cluster without a copy, best first."""
    cluster_id = int(system.assignment.category_to_cluster[category_id])
    members = system.peers_in_cluster(cluster_id)
    return sorted((p for p in members if doc_id not in p.docs), key=_rank)


def floor_targets(system: "P2PSystem", doc_id: int, ranked: list, need: int) -> list:
    """The ``need`` best destinations of floor copies: ``ranked`` (the home
    cluster's), or every live peer without a copy when it is too short."""
    if len(ranked) < need:
        anywhere = (p for p in system.alive_peers() if doc_id not in p.docs)
        ranked = sorted(anywhere, key=_rank)
    return ranked[:need]


def converge(system: "P2PSystem", doc_ids, leaving=None, budget=None) -> dict:
    """Move each of ``doc_ids`` toward its target (see the module doc).

    ``leaving``'s copies do not count; ``budget`` caps the floor copies
    started.  Returns documents scanned, found below the floor, floor
    copies started, and unrepairable (no live intact copy to copy from).
    """
    manager, content = system.replication, system.content
    extra = manager.extra if manager is not None else {}
    placed = manager.placed if manager is not None else {}
    floor = content.config.replication_floor if content is not None else 1
    holders, alive_among = system.ledger.holders, system.network.alive_among
    corrupt: dict[int, set[int]] = {}
    if content is not None:
        for peer in system.alive_peers():
            for doc_id in peer.content_state.corrupt:
                corrupt.setdefault(doc_id, set()).add(peer.node_id)
    # Most documents have enough copies and no extra, placed or corrupt
    # one: they cost one holder count.
    plain_enough = floor + (leaving is not None)
    special = corrupt.keys() | extra.keys() | placed.keys()
    report = {"scanned": len(doc_ids), "below_floor": 0, "fetches": 0, "unrepairable": 0}
    for doc_id in doc_ids:
        sources = alive_among(holders(doc_id))
        if len(sources) >= plain_enough and doc_id not in special:
            continue
        if doc_id in corrupt:
            sources = sources - corrupt[doc_id]
        copies = sources - {leaving} if leaving in sources else sources
        mine = placed.get(doc_id, frozenset())
        if not mine <= copies:
            manager.forget(doc_id, mine - copies)
            mine = placed.get(doc_id, frozenset())
        short = floor - len(copies) + len(mine)
        wanted = extra.get(doc_id, 0) - len(mine)
        if short <= 0 and not wanted:
            continue
        if not sources:
            report["unrepairable"] += 1
            continue
        if wanted < 0:
            # The lowest-ranked surplus copies go; where the floor is short,
            # the best of them stay, no longer the loop's.
            surplus = sorted(mine, key=lambda n: _rank(system.peers[n]))[wanted:]
            for node_id in surplus[max(short, 0):]:
                system.peers[node_id].drop_document(doc_id)
            manager.forget(doc_id, set(surplus))
            continue
        source = min(sources)
        category_id = system.peers[source].docs[doc_id].categories[0]
        ranked = home_candidates(system, doc_id, category_id)
        if short > 0:
            report["below_floor"] += 1
            if budget is not None and budget <= 0:
                continue
            chosen = floor_targets(system, doc_id, ranked, short)
            for target in chosen:
                if budget is not None and budget <= 0:
                    break
                if content is None:
                    target.adaptation.pull_documents(source, category_id, [doc_id])
                elif content.fetch(target.node_id, doc_id, purpose="heal") is None:
                    continue
                report["fetches"] += 1
                budget = None if budget is None else budget - 1
            ranked = [p for p in ranked if p not in chosen]
        for target in ranked[:wanted]:
            target.adaptation.pull_documents(source, category_id, [doc_id])
            if content is not None:
                content.ship_manifest(source, target.node_id, doc_id)
            manager.place(doc_id, target.node_id)
    return report


def graceful_shutdown(system: "P2PSystem", node_id: int) -> bool:
    """Drain, then run the loop over the leaver's documents (its copies
    not counting) up to :data:`HANDOFF_ROUNDS` times, then leave — unless
    a document would lose its last live copy, or the leaver crashed
    meanwhile.  Returns whether it left."""
    peer = system.peer(node_id)
    if peer is None or not system.network.is_alive(node_id):
        return False
    system.sim.run()
    for _ in range(HANDOFF_ROUNDS):
        if not system.is_live(node_id):
            return False
        if not converge(system, sorted(peer.docs), leaving=node_id)["below_floor"]:
            break
        system.sim.run()
    if not system.is_live(node_id):
        return False
    alive_among, holders = system.network.alive_among, system.ledger.holders
    if any(alive_among(holders(doc_id)) <= {node_id} for doc_id in peer.docs):
        return False
    system.leave_node(node_id)
    return True


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
    """What one replication round observed and did."""

    #: doc id -> nodes that were sent a placed copy this round.
    grown: dict[int, tuple[int, ...]] = field(default_factory=dict)
    #: doc id -> nodes whose placed copy was dropped or forgotten.
    shrunk: dict[int, tuple[int, ...]] = field(default_factory=dict)


class ReplicationManager:
    """The demand term of each document's target, and the copies the loop
    placed for it.  A round's pressure per category is its served hits
    (cache hits included) plus ``SHED_WEIGHT`` times its holders' sheds
    (split by their hit mix), per live holder.  A hot round raises the
    extra of its :data:`DOCS_PER_REPLICA` hottest documents by
    :data:`GROW_STEP` (at most :data:`MAX_REPLICAS`); from the
    :data:`SHRINK_AFTER`-th cold round in a row each round lowers it by one.
    """

    round_name = "replication"

    def __init__(self, system: "P2PSystem", config: ReplicationConfig) -> None:
        self.system = system
        self.config = config
        #: doc id -> copies demand wants above the floor.
        self.extra: dict[int, int] = {}
        #: doc id -> nodes holding a copy the loop placed there.
        self.placed: dict[int, set[int]] = {}
        #: consecutive cold rounds per category (the shrink hysteresis).
        self._cold_rounds: dict[int, int] = {}
        #: previous cumulative totals, for per-round deltas.
        self._last_hits: dict[int, int] = {}
        self._last_shed: dict[int, int] = {}
        #: placements and removals since the last round began, for its report.
        self._grown: dict[int, list[int]] = {}
        self._shrunk: dict[int, list[int]] = {}
        #: category -> sorted doc ids (static world content map).
        by_category: dict[int, list[int]] = {}
        for doc_id, doc in sorted(system.instance.documents.items()):
            for category_id in doc.categories:
                by_category.setdefault(category_id, []).append(doc_id)
        self._category_docs = {c: tuple(d) for c, d in by_category.items()}
        # Process-wide totals, shared by every enabled manager.
        self._c_grown = obs.counter("replication.replicas_added")
        self._c_shrunk = obs.counter("replication.replicas_removed")
        self._g_managed = obs.gauge("replication.managed_replicas")

    def total_placed(self) -> int:
        return sum(map(len, self.placed.values()))

    def place(self, doc_id: int, node_id: int) -> None:
        self.placed.setdefault(doc_id, set()).add(node_id)
        self._grown.setdefault(doc_id, []).append(node_id)
        self._c_grown.inc()

    def forget(self, doc_id: int, node_ids: set[int]) -> None:
        """Stop tracking placed copies (dropped, dead, departed, corrupt)."""
        mine = self.placed[doc_id]
        mine -= node_ids
        if not mine:
            del self.placed[doc_id]
        self._shrunk.setdefault(doc_id, []).extend(sorted(node_ids))
        self._c_shrunk.inc(len(node_ids))

    def _delta(self, last: dict[int, int], key: int, current: int) -> int:
        """Non-negative delta vs the stored watermark: a total that went
        backwards (``reset_hit_counters``) restarts from its value."""
        previous = last.get(key, 0)
        last[key] = current
        return current if current < previous else current - previous

    def _read_signals(self) -> tuple[dict[int, float], dict[int, int]]:
        """Per-category demand deltas and live-holder counts."""
        system = self.system
        hits_now: dict[int, int] = {}
        shed_mix: dict[int, float] = {}
        for peer in system.alive_peers():
            counters = peer.hit_counters
            for category_id, hits in counters.items():
                hits_now[category_id] = hits_now.get(category_id, 0) + hits
            snapshot = peer.service_snapshot()
            if snapshot is None:
                continue
            shed = self._delta(self._last_shed, peer.node_id, snapshot["shed"])
            local_total = sum(counters.values())
            if not shed or not local_total:
                continue
            for category_id, hits in counters.items():
                shed_mix[category_id] = (
                    shed_mix.get(category_id, 0.0) + shed * hits / local_total
                )
        demand = {
            category_id: self._delta(
                self._last_hits, category_id, hits_now.get(category_id, 0)
            ) + SHED_WEIGHT * shed_mix.get(category_id, 0.0)
            for category_id in self._category_docs
        }
        # Union first, then one liveness test per distinct node: a
        # category's documents share most of their holders.
        holders, is_alive = system.ledger.holders, system.network.is_alive
        live_holders = {
            category_id: sum(map(is_alive, set().union(*map(holders, doc_ids))))
            for category_id, doc_ids in self._category_docs.items()
        }
        return demand, live_holders

    def _hot_docs(self, category_id: int) -> list[int]:
        """The category's hottest documents its home cluster can still take
        (some live member lacks them).  Holder count is the demand proxy:
        caching and earlier grows concentrate copies on what the crowd asks
        for.  Ties break on doc id."""
        system = self.system
        holders = system.ledger.holders
        cluster_id = int(system.assignment.category_to_cluster[category_id])
        members = {peer.node_id for peer in system.peers_in_cluster(cluster_id)}
        ranked = sorted(
            self._category_docs.get(category_id, ()),
            key=lambda d: (-len(holders(d)), d),
        )
        takers = (d for d in ranked if not members <= holders(d))
        return list(islice(takers, DOCS_PER_REPLICA))

    def run_round(self) -> RoundReport:
        """Read the signals, move the extras, then run the loop over every
        document with an extra or a placed copy."""
        demand, live_holders = self._read_signals()
        report = RoundReport()
        extra = self.extra
        for category_id, doc_ids in sorted(self._category_docs.items()):
            pressure = demand[category_id] / max(1, live_holders[category_id])
            if pressure <= self.config.shrink_threshold:
                cold = self._cold_rounds[category_id] = (
                    self._cold_rounds.get(category_id, 0) + 1
                )
                if cold >= SHRINK_AFTER:
                    for doc_id in extra.keys() & set(doc_ids):
                        extra[doc_id] -= 1
                        if not extra[doc_id]:
                            del extra[doc_id]
                continue
            # Hot or in the hysteresis band: the cold streak ends.
            self._cold_rounds[category_id] = 0
            if pressure >= self.config.grow_threshold:
                for doc_id in self._hot_docs(category_id):
                    extra[doc_id] = min(MAX_REPLICAS, extra.get(doc_id, 0) + GROW_STEP)
        self._grown, self._shrunk = {}, {}
        converge(self.system, sorted(extra.keys() | self.placed.keys()))
        report.grown.update((d, tuple(n)) for d, n in sorted(self._grown.items()))
        report.shrunk.update((d, tuple(n)) for d, n in sorted(self._shrunk.items()))
        self._g_managed.set(self.total_placed())
        return report
