"""Per-peer service model: bounded intake queues and admission control.

The paper's load-balancing machinery (MaxFair assignment, random target
selection, top-m replication) balances *where* queries land, but assumes
every node can absorb whatever the overlay routes to it.  This module
adds the missing capacity model: each peer serves queries one at a time,
taking ``base_service_time / capacity_units`` simulated seconds per
query, with a bounded FIFO intake queue in front of the server.

The queue serves whatever member-side work it is offered (routed
queries, chunk requests) and hands each item back to the component that
admitted it, its *owner*: ``owner.serve(work)`` at service completion,
``owner.shed(work)`` when the work is dropped, ``owner.redirect(work)``
when the policy asks for a redirect.  The owner decides what those
mean for its protocol.

When the queue is full an admission policy decides what to do with the
overflow:

* ``drop-tail`` — shed the incoming work.  A shed query gets a ``BUSY``
  signal carrying :data:`BUSY_RETRY_AFTER`, after which the requester
  backs off and fails over to another cluster member.  A shed chunk
  request is refused, and the fetcher fails over to another source.
* ``redirect`` — hand the overflow query directly to another replica
  holder (via the cluster metadata) or cluster member (via the NRT),
  the load-based redirection of Roussopoulos & Baker; shed as
  ``drop-tail`` when the owner knows no other target.

Everything is off by default (``ServiceConfig(enabled=False)``): peers
serve instantly with unbounded intake, exactly as before, and none of
the overload metrics are even registered — deterministic metric
snapshots of non-overload runs stay byte-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.peer import Peer

__all__ = ["ADMISSION_POLICIES", "ServiceConfig", "ServiceQueue"]

#: Admission policies a full intake queue can apply to overflow.
ADMISSION_POLICIES = ("drop-tail", "redirect")
#: back-off hint (simulated seconds) carried in the BUSY signal sent for
#: a shed query.
BUSY_RETRY_AFTER = 0.5


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Knobs for the per-peer service model (off by default)."""

    #: master switch; off keeps query serving instantaneous and
    #: unbounded, with zero extra events, RNG draws, or metrics.
    enabled: bool = False
    #: simulated seconds one query costs a capacity-1 node; a node with
    #: ``capacity_units`` serves each query in ``base / capacity_units``
    #: (Section 4.3.1 units double as a service rate).
    base_service_time: float = 0.05
    #: intake queue bound in front of the single server; 0 = unbounded
    #: (work-conserving but with unbounded waiting — the "protection
    #: off" arm of the overload experiment).
    queue_capacity: int = 16
    #: what to do with overflow when the queue is full.
    policy: str = "drop-tail"

    def __post_init__(self) -> None:
        if self.base_service_time <= 0:
            raise ValueError(
                f"base_service_time must be > 0, got {self.base_service_time}"
            )
        if self.queue_capacity < 0:
            raise ValueError(
                f"queue_capacity must be >= 0, got {self.queue_capacity}"
            )
        if self.policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"policy must be one of {ADMISSION_POLICIES}, got {self.policy!r}"
            )


#: the queue of a server at which no work has waited yet (shared).
_NEVER_WAITED: tuple = ()


class ServiceQueue:
    """Single-server FIFO queue gating one peer's member-side work.

    Constructed only when ``ServiceConfig.enabled`` — the overload
    metrics below are registered here, lazily, so default-off runs
    register nothing and deterministic snapshots stay byte-identical.

    Accounting invariant (checked by the chaos harness)::

        offered == processed + shed + redirected + depth + in_service
    """

    __slots__ = (
        "peer", "config", "_queue", "_in_service", "_current", "_epoch",
        "offered", "processed", "shed", "redirected", "max_depth",
        "_c_shed", "_c_redirected", "_g_depth",
    )

    def __init__(self, peer: "Peer", config: ServiceConfig) -> None:
        self.peer = peer
        self.config = config
        #: waiting ``(work, owner)`` pairs, oldest first: a deque from the
        #: first arrival that has to wait (an empty deque costs 760 B, and
        #: a peer whose work never waits needs none).
        self._queue: deque[tuple[object, object]] | tuple = _NEVER_WAITED
        self._in_service = False
        #: ``(work, owner)`` occupying the server (None when idle).
        self._current: tuple[object, object] | None = None
        #: bumped on crash so already-scheduled completions become no-ops.
        self._epoch = 0
        # local accounting (per peer)
        self.offered = 0
        self.processed = 0
        self.shed = 0
        self.redirected = 0
        self.max_depth = 0
        # process-wide totals, shared by every enabled queue
        self._c_shed = obs.counter("overload.shed")
        self._c_redirected = obs.counter("overload.redirected")
        self._g_depth = obs.gauge("overload.queue_depth")

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def offer(self, work, owner) -> None:
        """Admit, queue, or shed one item of ``owner``'s work."""
        self.offered += 1
        if not self._in_service:
            self._begin(work, owner)
            return
        capacity = self.config.queue_capacity
        if capacity <= 0 or len(self._queue) < capacity:
            if self._queue is _NEVER_WAITED:
                self._queue = deque()
            self._queue.append((work, owner))
            self._g_depth.value += 1
            if len(self._queue) > self.max_depth:
                self.max_depth = len(self._queue)
            return
        if self.config.policy == "redirect" and owner.redirect(work):
            self.redirected += 1
            self._c_redirected.value += 1
            return
        self._shed(work, owner)

    def _shed(self, work, owner) -> None:
        self.shed += 1
        self._c_shed.value += 1
        owner.shed(work)

    # ------------------------------------------------------------------
    # the server
    # ------------------------------------------------------------------
    @property
    def service_time(self) -> float:
        """Per-query service time, inversely proportional to capacity.

        Derived from the peer's *current* ``capacity_units`` at every
        service start, so capacity changes mid-run (adaptive placement on
        capacity tiers, operator retuning) change the service rate for
        the next query instead of being silently ignored.
        """
        return self.config.base_service_time / max(
            self.peer.capacity_units, 1e-9
        )

    def _begin(self, work, owner) -> None:
        self._in_service = True
        self._current = (work, owner)
        epoch = self._epoch
        # Bandwidth as a load dimension: payloads carrying bytes (chunk
        # requests from the content data plane) declare ``service_units``
        # proportional to their size; plain queries cost exactly one unit
        # (multiplying by 1.0 is exact, so query-only runs are untouched).
        units = getattr(work, "service_units", 1.0)
        self.peer.transport.schedule(
            self.service_time * units, lambda: self._complete(work, owner, epoch)
        )

    def _complete(self, work, owner, epoch: int) -> None:
        if epoch != self._epoch:
            return  # the host crashed mid-service; on_crash accounted it
        if not self.peer.transport.is_alive(self.peer.node_id):
            # Belt and suspenders: a crash that bypassed on_crash must not
            # let a dead node keep serving.  The queue is left undrained on
            # purpose — the overload-drain invariant flags the unwired path.
            return
        self._current = None
        self.processed += 1
        owner.serve(work)
        if self._queue:
            self._g_depth.value -= 1
            self._begin(*self._queue.popleft())
        else:
            self._in_service = False

    def on_crash(self) -> None:
        """The host died without goodbye: account all accepted work.

        The in-flight item and every queued item are shed — the signals
        their owners send originate from a crashed node, so the network
        drops them and requesters learn of the loss through their
        deadlines, just like any other message to or from a dead peer.
        What matters here is conservation: no accepted work may silently
        vanish from the
        ``offered == processed + shed + redirected + depth + in_service``
        ledger, and the already-scheduled completion must not fire on the
        corpse (the epoch bump disarms it).
        """
        self._epoch += 1
        if self._in_service:
            self._in_service = False
            current, self._current = self._current, None
            if current is not None:
                self._shed(*current)
        while self._queue:
            self._g_depth.value -= 1
            self._shed(*self._queue.popleft())

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Read-only accounting view for tests and invariant checks."""
        return {
            "offered": self.offered,
            "processed": self.processed,
            "shed": self.shed,
            "redirected": self.redirected,
            "depth": len(self._queue),
            "in_service": self._in_service,
            "max_depth": self.max_depth,
            "capacity": self.config.queue_capacity,
        }
