"""System-wide safety invariants: one registry, checked by one checker.

:data:`INVARIANTS` names every property the chaos harness asserts.  An
entry is made by decorating its check — a generator method of
:class:`InvariantChecker` yielding one detail string per breach — with
:func:`invariant`: the check's docstring is the statement, ``group`` is
``core`` or the subsystem whose presence switches it on (:data:`GROUPS`),
and ``when`` is ``quiescence`` (run by
:meth:`InvariantChecker.check_structural`, the simulator's quiescence
hook) or the harness event — ``workload`` or the chaos action(s) — after
which :meth:`InvariantChecker.check` is called with the invariant's name.
Registration order is check order.  The registered invariants:

"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from repro import obs
from repro.overlay.replication_manager import MAX_REPLICAS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.content.manifest import FetchRecord
    from repro.metrics.response import QueryOutcome
    from repro.overlay.adaptation import AdaptationOutcome
    from repro.overlay.peer import Peer
    from repro.overlay.system import P2PSystem

__all__ = ["GROUPS", "INVARIANTS", "Invariant", "InvariantChecker", "Violation"]

_EPS = 1e-9

#: group -> "is it on for this built system?".  The checker asks the
#: system what it built rather than re-reading config, and asks at every
#: pass (the integrity audit is armed mid-run), so default worlds run no
#: extra checks and keep their exact check counts — and metric goldens.
GROUPS = {
    "core": lambda system: True,
    "overload": lambda system: system.config.service.enabled,
    "replication": lambda system: system.replication is not None,
    "integrity": lambda system: system.ledger.audit is not None,
    "content": lambda system: system.content is not None,
    "recovery": lambda system: system.recovery is not None,
}


@dataclass(frozen=True, slots=True)
class Invariant:
    """One registered invariant: where it applies, when, what, how."""

    group: str
    when: str
    statement: str
    check: Callable[..., Iterator[str]]


#: every invariant, ``name -> Invariant``, in check order.
INVARIANTS: dict[str, Invariant] = {}


def invariant(name: str, group: str = "core", when: str = "quiescence"):
    """Register the decorated check; its docstring is the statement."""

    def register(check):
        statement = " ".join(check.__doc__.split())
        INVARIANTS[name] = Invariant(group, when, statement, check)
        return check

    return register


@dataclass(frozen=True, slots=True)
class Violation:
    """One observed invariant breach."""

    invariant: str
    step: int
    detail: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"[step {self.step}] {self.invariant}: {self.detail}"


class InvariantChecker:
    """Watches one system; accumulates :class:`Violation` records.

    The checker is deliberately read-only: it observes through the
    system's copy-returning introspection views and never mutates overlay
    state, so registering it cannot change simulation outcomes.
    """

    def __init__(self, system: "P2PSystem") -> None:
        self.system = system
        self.violations: list[Violation] = []
        #: schedule step currently executing (set by the harness).
        self.step = -1
        #: every document that must keep existing somewhere.
        self._expected_docs: set[int] = set()
        for docs in system.stored_docs_by_node().values():
            self._expected_docs |= docs
        #: (node_id, category_id) -> highest move counter seen there.
        self._peer_marks: dict[tuple[int, int], int] = {}
        #: category_id -> highest authoritative move counter seen.
        self._assignment_marks: dict[int, int] = {}
        self._c_checks = obs.counter("chaos.invariant_checks")
        self._c_violations = obs.counter("chaos.violations")
        #: how many integrity failures have already been reported — the
        #: system's list is cumulative, so only the tail is new each step.
        self._integrity_cursor = 0
        #: doc_id -> highest manifest version seen (monotonicity mark).
        self._manifest_marks: dict[int, int] = {}
        #: fetch-integrity breaches found as fetches settled, reported
        #: at the next check.
        self._fetch_breaches: list[str] = []
        if system.content is not None:
            system.content.settled_listeners.append(self._audit_fetch)
        #: how many epoch-ledger claims have already been audited (the
        #: ledger is append-only) plus every (category, epoch) -> cluster
        #: claim seen so far, so a conflicting re-claim is caught even
        #: when the two claims land in different quiescent steps.
        self._epoch_cursor = 0
        self._epoch_claim_marks: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # bookkeeping and entry points
    # ------------------------------------------------------------------
    def note_published(self, doc_id: int) -> None:
        """Register a chaos-created document for conservation tracking."""
        self._expected_docs.add(doc_id)

    def check(self, name: str, *args, **kwargs) -> None:
        """Run one registered invariant now; record what it yields.

        The harness calls this when an event-driven invariant's trigger
        fires, with whatever the check needs (the workload's outcomes,
        the node that recovered, ...).
        """
        self._c_checks.inc()
        with obs.Timer(obs.histogram(f"chaos.invariant.{name}_s")):
            for detail in INVARIANTS[name].check(self, *args, **kwargs):
                self.violations.append(
                    Violation(invariant=name, step=self.step, detail=detail)
                )
                self._c_violations.inc()
                obs.counter(f"chaos.violations.{name}").inc()

    def check_structural(self) -> None:
        """Every ``quiescence`` invariant whose group is on for this
        system; the simulator's quiescence hook."""
        system = self.system
        for name, entry in INVARIANTS.items():
            if entry.when == "quiescence" and GROUPS[entry.group](system):
                self.check(name)

    def probe_convergence(self) -> bool:
        """``gossip-convergence`` without recording violations (the settle
        loop's "are more gossip rounds worth running?")."""
        return next(self._check_convergence(), None) is None

    # ------------------------------------------------------------------
    # core
    # ------------------------------------------------------------------
    @invariant("unique-ownership")
    def _check_unique_ownership(self):
        """The authoritative assignment maps every category to exactly
        one existing cluster."""
        assignment = self.system.assignment
        if not assignment.is_complete():
            yield "assignment has unassigned categories"
            return
        n_clusters = assignment.n_clusters
        for category_id in range(assignment.n_categories):
            cluster_id = int(assignment.category_to_cluster[category_id])
            if not 0 <= cluster_id < n_clusters:
                yield (
                    f"category {category_id} assigned to nonexistent "
                    f"cluster {cluster_id}"
                )

    @invariant("move-counter-monotonic")
    def _check_move_counters(self):
        """No peer's DCRT entry for a category, and no authoritative
        assignment entry, ever goes backwards in move counter."""
        assignment = self.system.assignment
        for category_id in range(assignment.n_categories):
            counter = int(assignment.move_counters[category_id])
            previous = self._assignment_marks.get(category_id, 0)
            if counter < previous:
                yield (
                    f"authoritative move counter of category {category_id} "
                    f"went {previous} -> {counter}"
                )
            else:
                self._assignment_marks[category_id] = counter
        # Every peer ever created — a departed peer's DCRT is frozen, so
        # watermarking it stays cheap and can only catch genuine rollbacks.
        for node_id, peer in sorted(self.system.peers.items()):
            for category_id, entry in peer.dcrt.items():
                key = (node_id, category_id)
                previous = self._peer_marks.get(key, 0)
                if entry.move_counter < previous:
                    yield (
                        f"node {node_id} category {category_id} move counter "
                        f"went {previous} -> {entry.move_counter}"
                    )
                else:
                    self._peer_marks[key] = entry.move_counter

    @invariant("doc-conservation")
    def _check_conservation(self):
        """Every document ever placed or published still exists on some
        peer object or surviving journal; rebalancing never destroys
        content."""
        held: set[int] = set()
        for docs in self.system.stored_docs_by_node().values():
            held |= docs
        if self.system.recovery is not None:
            # A powered-off node's journal is its surviving disk: a doc
            # that exists only there has not vanished — recovery will
            # restore it — so the WAL counts toward conservation.
            for docs in self.system.recovery.durable_docs_by_node().values():
                held |= docs
        missing = self._expected_docs - held
        if missing:
            sample = sorted(missing)[:10]
            yield (
                f"{len(missing)} documents vanished from every peer "
                f"(sample: {sample})"
            )

    @invariant("holder-consistency")
    def _check_holders(self):
        """The holder directory and the peers' actual stores agree in
        both directions."""
        stored = self.system.stored_docs_by_node()
        holders_view = self.system.doc_holders_view()
        for doc_id, holders in holders_view.items():
            for node_id in holders:
                if doc_id not in stored.get(node_id, ()):
                    yield (
                        f"metadata lists node {node_id} as holder of doc "
                        f"{doc_id} but the peer does not store it"
                    )
        for node_id, docs in stored.items():
            for doc_id in docs:
                if node_id not in holders_view.get(doc_id, ()):
                    yield (
                        f"node {node_id} stores doc {doc_id} but the holder "
                        f"directory does not know"
                    )

    @invariant("membership-consistency")
    def _check_membership(self):
        """Live peers' cluster memberships and the system's authoritative
        membership sets agree."""
        members_view = self.system.cluster_members_view()
        departed = set(self.system.departed_node_ids())
        for cluster_id, members in members_view.items():
            for peer in self.system.peers_in_cluster(cluster_id):
                if cluster_id not in peer.memberships:
                    yield (
                        f"system lists node {peer.node_id} in cluster "
                        f"{cluster_id} but the peer does not believe it"
                    )
        for peer in self.system.alive_peers():
            if peer.node_id in departed:
                continue
            for cluster_id in peer.memberships:
                if peer.node_id not in members_view.get(cluster_id, ()):
                    yield (
                        f"node {peer.node_id} believes it is in cluster "
                        f"{cluster_id} but the system does not list it"
                    )

    @invariant("exactly-once-effects")
    def _check_exactly_once(self):
        """No receiver ever applied the same reliable delivery twice,
        however many times it was retransmitted."""
        # Each peer counts handler applications per (src, delivery_id);
        # a count above one means a retransmission slipped past the
        # dedup window and re-ran its protocol handler.
        for peer in self.system.alive_peers():
            for (src, delivery_id), count in sorted(
                peer.reliable_application_counts().items()
            ):
                if count > 1:
                    yield (
                        f"node {peer.node_id} applied delivery "
                        f"{delivery_id} from node {src} {count} times"
                    )

    @invariant("query-termination", when="workload")
    def _check_outcomes(self, outcomes: list[QueryOutcome]):
        """Every issued query ends in exactly one of answered, unanswered
        or failed, with no event left queued."""
        if self.system.sim.pending() > 0:
            yield (
                f"{self.system.sim.pending()} events still queued when "
                f"outcomes were finalized"
            )
        for outcome in outcomes:
            states = [
                outcome.failed,
                outcome.results > 0,
                (not outcome.failed) and outcome.results == 0,
            ]
            if sum(states) != 1:
                yield (
                    f"query {outcome.query_id} is in {sum(states)} "
                    f"terminal states (failed={outcome.failed}, "
                    f"results={outcome.results})"
                )
            if outcome.failed and outcome.first_response_at is not None:
                yield (
                    f"query {outcome.query_id} both failed and received "
                    f"a response"
                )

    @invariant("gossip-convergence", when="converge")
    def _check_convergence(self):
        """After the heal-and-settle window, live peers that can reach
        each other through gossip partners agree on every DCRT entry."""
        alive = {peer.node_id: peer for peer in self.system.alive_peers()}
        for component in _gossip_components(alive):
            yield from _component_disagreements(
                component, alive, self.system.n_categories
            )

    @invariant("fairness-bound", when="adapt")
    def _check_adaptation(self, outcome: AdaptationOutcome):
        """An adaptation round's observed Jain fairness lies in [0, 1] and
        its reassignment trace never decreases (MaxFair only accepts
        improving moves)."""
        fairness = outcome.observed_fairness
        if not 0.0 <= fairness <= 1.0 + _EPS:
            yield f"observed fairness {fairness} outside [0, 1]"
        result = outcome.reassign_result
        if result is None:
            return
        trace = result.fairness_trace
        for value in trace:
            if not 0.0 <= value <= 1.0 + _EPS:
                yield f"fairness trace value {value} outside [0, 1]"
        for earlier, later in zip(trace, trace[1:]):
            if later < earlier - _EPS:
                yield (
                    f"fairness trace decreased: {earlier} -> {later} "
                    f"(MaxFair only accepts improving moves)"
                )
        if result.final_fairness < result.initial_fairness - _EPS:
            yield (
                f"rebalancing lowered planned fairness "
                f"{result.initial_fairness} -> {result.final_fairness}"
            )

    # ------------------------------------------------------------------
    # overload (the per-peer service model is on)
    # ------------------------------------------------------------------
    def _service_snapshots(self):
        # Every peer object ever created, including crashed ones: a dead
        # node must have shed its admitted work at the moment of the
        # crash, so conservation and drain hold for corpses too — this is
        # exactly what catches a crash path that skips the service-queue
        # lifecycle (a completion firing on a dead node, queued queries
        # leaking forever).
        for node_id, peer in sorted(self.system.peers.items()):
            snapshot = peer.service_snapshot()
            if snapshot is not None:
                yield node_id, snapshot

    @invariant("service-queue-bound", "overload")
    def _check_service_queue_bound(self):
        """No service queue ever held more queries than its configured
        capacity: admission control cannot be bypassed."""
        for node_id, snap in self._service_snapshots():
            capacity = snap["capacity"]
            if capacity > 0 and snap["max_depth"] > capacity:
                yield (
                    f"node {node_id} service queue reached depth "
                    f"{snap['max_depth']} with capacity {capacity}"
                )

    @invariant("overload-conservation", "overload")
    def _check_overload_conservation(self):
        """Per queue, offered == processed + shed + redirected + queued +
        in_service: every admitted query is accounted for exactly once."""
        for node_id, snap in self._service_snapshots():
            accounted = (
                snap["processed"]
                + snap["shed"]
                + snap["redirected"]
                + snap["depth"]
                + (1 if snap["in_service"] else 0)
            )
            if accounted != snap["offered"]:
                yield (
                    f"node {node_id} service queue leaks queries: offered "
                    f"{snap['offered']} but accounted for {accounted} "
                    f"(processed {snap['processed']}, shed {snap['shed']}, "
                    f"redirected {snap['redirected']}, queued {snap['depth']}, "
                    f"in_service {snap['in_service']})"
                )

    @invariant("overload-drain", "overload")
    def _check_overload_drain(self):
        """At quiescence no query is still queued or in service, on live
        and crashed peers alike."""
        for node_id, snap in self._service_snapshots():
            if snap["depth"] or snap["in_service"]:
                yield (
                    f"node {node_id} still has {snap['depth']} queued and "
                    f"in_service={snap['in_service']} at quiescence"
                )

    @invariant("retry-budget-no-overdraft", "overload")
    def _check_retry_budgets(self):
        """No reliable channel's per-destination retry budget ever goes
        negative: retries cannot outrun the token bucket."""
        for peer in self.system.alive_peers():
            minimum = peer.channel.min_budget_tokens()
            if minimum is not None and minimum < -_EPS:
                yield (
                    f"node {peer.node_id} overdrew a retry budget to "
                    f"{minimum} tokens"
                )

    # ------------------------------------------------------------------
    # replication (the demand-adaptive manager is built), integrity (a
    # misbehaving peer has been armed)
    # ------------------------------------------------------------------
    @invariant("replication-bounds", "replication")
    def _check_replication_bounds(self):
        """The copies the replica loop placed for each document stay
        within ``MAX_REPLICAS`` and only ever name real nodes."""
        known = set(self.system.all_node_ids())
        for doc_id, nodes in sorted(self.system.replication.placed.items()):
            if len(nodes) > MAX_REPLICAS:
                yield (
                    f"doc {doc_id} has {len(nodes)} placed copies, "
                    f"exceeding max_replicas {MAX_REPLICAS}"
                )
            for node_id in sorted(nodes - known):
                yield f"doc {doc_id} tracks a placed copy on unknown node {node_id}"

    @invariant("response-integrity", "integrity")
    def _check_response_integrity(self):
        """Every response a requester accepted only claims documents its
        responder actually stored at some point."""
        # The audit list is cumulative: report only the tail beyond the
        # last quiescent step's cursor.
        failures = self.system.ledger.audit.violations
        new = failures[self._integrity_cursor :]
        self._integrity_cursor = len(failures)
        yield from new

    # ------------------------------------------------------------------
    # content (the chunk data plane is built)
    # ------------------------------------------------------------------
    @invariant("manifest-consistency", "content")
    def _check_manifests(self):
        """Every manifest's chunk hashes are content-derived, their count
        matches its size, and its version never goes backwards."""
        from repro.content import chunk_hash, n_chunks

        manager = self.system.content
        for doc_id in sorted(manager.manifests):
            manifest = manager.manifests[doc_id]
            expected = n_chunks(manifest.size_bytes, manifest.chunk_size)
            if manifest.n_chunks != expected:
                yield (
                    f"doc {doc_id} manifest lists {manifest.n_chunks} "
                    f"chunks but its size implies {expected}"
                )
            for index, value in enumerate(manifest.chunk_hashes):
                if value != chunk_hash(doc_id, index):
                    yield (
                        f"doc {doc_id} manifest hash for chunk {index} "
                        f"is not content-derived"
                    )
            previous = self._manifest_marks.get(doc_id, -1)
            if manifest.version < previous:
                yield (
                    f"doc {doc_id} manifest version went "
                    f"{previous} -> {manifest.version}"
                )
            else:
                self._manifest_marks[doc_id] = manifest.version

    @invariant("fetch-integrity", "content")
    def _check_fetch_integrity(self):
        """Every fetch that completed verified all of its chunks against
        exactly the manifest's hashes."""
        breaches, self._fetch_breaches = self._fetch_breaches, []
        yield from breaches

    def _audit_fetch(self, record: FetchRecord) -> None:
        """``fetch-integrity`` for one fetch as it settles."""
        if record.failed:
            return
        if not record.verified:
            self._fetch_breaches.append(
                f"fetch {record.fetch_id} of doc {record.doc_id} "
                f"completed without verification"
            )
            return
        manifest = self.system.content.manifests.get(record.doc_id)
        if manifest is None:
            self._fetch_breaches.append(
                f"fetch {record.fetch_id} completed for unknown doc "
                f"{record.doc_id}"
            )
        elif record.chunk_hashes != manifest.chunk_hashes:
            self._fetch_breaches.append(
                f"fetch {record.fetch_id} of doc {record.doc_id} "
                f"verified hashes that differ from the manifest"
            )

    @invariant("chunk-availability", "content", when="converge")
    def _check_chunk_availability(self):
        """After healing runs dry, every document with a live holder has
        at least ``min(replication_floor, live peers)`` of them."""
        manager = self.system.content
        floor = min(
            manager.config.replication_floor, len(self.system.alive_peers())
        )
        for doc_id in sorted(manager.manifests):
            holders = manager.live_holders(doc_id)
            if not holders:
                continue  # unrepairable: no live copy to heal from
            if len(holders) < floor:
                yield (
                    f"doc {doc_id} has {len(holders)} live holders "
                    f"after healing ran dry (floor {floor})"
                )

    @invariant("no-sole-holder-loss", "content", when="graceful_shutdown")
    def _check_graceful_shutdown(self, leaver_id: int, doc_ids):
        """A graceful shutdown leaves every document the leaver held with
        at least one other live holder."""
        live_holders = self.system.ledger.live_holders
        for doc_id in doc_ids:
            if not set(live_holders(doc_id)) - {leaver_id}:
                yield (
                    f"graceful shutdown of node {leaver_id} lost the "
                    f"last live copy of doc {doc_id}"
                )

    # ------------------------------------------------------------------
    # recovery (per-peer journals are attached)
    # ------------------------------------------------------------------
    @invariant("no-acknowledged-write-loss", "recovery")
    def _check_acknowledged_writes(self):
        """A peer that is alive with its memory intact still holds every
        document whose store was acknowledged into its journal."""
        # A powered-off or amnesiac peer is exempt until
        # P2PSystem.recover_node replays its journal.
        durable = self.system.recovery.durable_docs_by_node()
        for peer in self.system.alive_peers():
            if peer.lost_memory:
                continue
            missing = durable.get(peer.node_id, frozenset()) - set(peer.docs)
            if missing:
                sample = sorted(missing)[:10]
                yield (
                    f"node {peer.node_id} acknowledged {len(missing)} "
                    f"documents into its journal but no longer holds them "
                    f"(sample: {sample})"
                )

    @invariant("single-owner-per-epoch", "recovery")
    def _check_epoch_ownership(self):
        """The epoch ledger never assigns one (category, epoch) to two
        clusters, and every nonzero epoch a live peer believes was claimed
        there and is not above its high-water mark."""
        # Ledger: the marks persist across steps so a conflicting re-claim
        # is caught even when the claims land in different quiescent
        # windows.  Peers: claims are recorded *before* the fenced notice
        # is sent, so a belief without a claim is a fabricated epoch.
        claims = self.system.recovery.epoch_claims()
        for category_id, epoch, cluster_id in claims[self._epoch_cursor :]:
            key = (category_id, epoch)
            previous = self._epoch_claim_marks.get(key)
            if previous is not None and previous != cluster_id:
                yield (
                    f"category {category_id} epoch {epoch} claimed by both "
                    f"cluster {previous} and cluster {cluster_id}"
                )
            else:
                self._epoch_claim_marks[key] = cluster_id
        self._epoch_cursor = len(claims)
        highest: dict[int, int] = {}
        for (category_id, epoch), _cluster in self._epoch_claim_marks.items():
            highest[category_id] = max(highest.get(category_id, 0), epoch)
        for peer in self.system.alive_peers():
            for category_id, epoch in sorted(peer.ownership_epochs.items()):
                if epoch <= 0:
                    continue
                if (category_id, epoch) not in self._epoch_claim_marks:
                    yield (
                        f"node {peer.node_id} believes category "
                        f"{category_id} epoch {epoch} which was never "
                        f"claimed in the epoch ledger"
                    )
                elif epoch > highest.get(category_id, 0):
                    yield (
                        f"node {peer.node_id} believes category "
                        f"{category_id} epoch {epoch} above the ledger "
                        f"high-water mark {highest.get(category_id, 0)}"
                    )

    @invariant(
        "recovery-convergence", "recovery", when="power_loss/split_brain_heal"
    )
    def _check_recovery(self, node_id=None, category_id=None):
        """After a power-loss recovery the node holds and re-advertises
        every durable document and its NRT names a member of every
        non-empty cluster; after a reconciliation every live peer agrees
        with the assignment on the reconciled category."""
        if node_id is not None:
            yield from self._recovered_node_failures(node_id)
        if category_id is not None:
            assignment = self.system.assignment
            target = int(assignment.category_to_cluster[category_id])
            for peer in self.system.alive_peers():
                entry = peer.dcrt.entry(category_id)
                if entry.cluster_id != target:
                    yield (
                        f"after reconciliation node {peer.node_id} still "
                        f"maps category {category_id} to cluster "
                        f"{entry.cluster_id} (authoritative: {target})"
                    )

    def _recovered_node_failures(self, node_id: int):
        peer = self.system.peers.get(node_id)
        if peer is None:
            return
        if not self.system.network.is_alive(node_id):
            yield f"node {node_id} is not alive after recovery"
            return
        if peer.lost_memory:
            yield f"node {node_id} still reports lost memory after recovery"
        durable = self.system.journal(node_id).durable_doc_ids()
        missing = durable - set(peer.docs)
        if missing:
            yield (
                f"recovered node {node_id} is missing "
                f"{len(missing)} durable documents "
                f"(sample: {sorted(missing)[:10]})"
            )
        holders_view = self.system.doc_holders_view()
        unadvertised = {
            doc_id
            for doc_id in durable - missing
            if node_id not in holders_view.get(doc_id, ())
        }
        if unadvertised:
            yield (
                f"recovered node {node_id} holds but does not "
                f"re-advertise {len(unadvertised)} documents "
                f"(sample: {sorted(unadvertised)[:10]})"
            )
        # A journal replays memberships, not routes: without a redraw the
        # node could not reach a cluster it is not a member of.
        for cluster_id, members in self.system.cluster_members_view().items():
            if members and members.isdisjoint(peer.nrt.nodes_in(cluster_id)):
                yield (
                    f"recovered node {node_id} knows no member of "
                    f"cluster {cluster_id}"
                )


__doc__ += "\n".join(
    f"``{name}`` [{entry.group}, {entry.when}]: {entry.statement}"
    for name, entry in INVARIANTS.items()
)


# ----------------------------------------------------------------------
# gossip reachability
# ----------------------------------------------------------------------
def _gossip_partners(peer: Peer) -> set[int]:
    """The pool :meth:`MembershipProtocol.gossip_once` draws partners from."""
    partners: set[int] = set()
    for neighbors in peer.cluster_neighbors.values():
        partners |= set(neighbors)
    if not partners:
        for cluster_id in peer.nrt.clusters():
            partners |= {
                node_id
                for node_id in peer.nrt.nodes_in(cluster_id)
                if node_id != peer.node_id
            }
    return partners


def _gossip_components(alive: dict[int, Peer]) -> list[list[int]]:
    """Connected components of live peers under mutual gossip reach.

    An undirected edge exists when either side has the other in its
    partner pool: a push in one direction updates both ends (push-pull),
    so information flows both ways across it.  Components matter because
    a peer isolated by crashes *cannot* converge — flagging it would be a
    false positive, not a bug.
    """
    edges: dict[int, set[int]] = {node_id: set() for node_id in alive}
    for node_id, peer in alive.items():
        for partner in _gossip_partners(peer):
            if partner in alive:
                edges[node_id].add(partner)
                edges[partner].add(node_id)
    components: list[list[int]] = []
    seen: set[int] = set()
    for node_id in sorted(alive):
        if node_id in seen:
            continue
        component = []
        frontier = [node_id]
        seen.add(node_id)
        while frontier:
            current = frontier.pop()
            component.append(current)
            for neighbor in sorted(edges[current]):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        components.append(sorted(component))
    return components


def _component_disagreements(
    component: list[int], alive: dict[int, Peer], n_categories: int
) -> list[str]:
    """DCRT entries the members of one component disagree on."""
    failures = []
    for category_id in range(n_categories):
        entries = {
            (
                alive[node_id].dcrt.entry(category_id).cluster_id,
                alive[node_id].dcrt.entry(category_id).move_counter,
            )
            for node_id in component
        }
        if len(entries) > 1:
            failures.append(
                f"component of {len(component)} live peers disagrees on "
                f"category {category_id}: entries {sorted(entries)}"
            )
    return failures
