"""SWIM-style failure detection: one probe a round, indirect before suspect.

The paper's protocols detect death per-request (monitoring timeouts,
leader probes); the :class:`FailureDetector` generalizes that machinery
into a shared suspect list, probing on the schedule of SWIM (Das, Gupta
and Motivala, DSN 2002).  Evidence flows in from three sources:

* **probe rounds** — each :meth:`probe_round` takes the next slot of a
  shuffled order over the peer's pool (cluster neighbours, NRT contacts
  as the fallback), so every contact gets a slot every ``|pool|``
  rounds.  A contact heard from since the previous round is not
  probed.  When the direct ping's ``probe_timeout`` passes with no pong,
  up to ``_INDIRECT_PROBES`` helpers from the pool forward the same ping
  to the target, which pongs the prober directly; if a second
  ``probe_timeout`` passes with no pong either, the target is suspected
  at once;
* **other evidence** — a reliable delivery exhausting its attempts
  (``ReliableChannel.on_give_up``), a chunk timeout, or a direct
  :meth:`probe` with no helpers to ask counts one miss, and
  ``suspicion_threshold`` consecutive misses make a suspect;
* **any received message** — :meth:`note_alive` clears the sender's
  misses and suspicion, so a suspect that speaks is rehabilitated.

Suspects are excluded from NRT target selection, leader election, and
monitoring-tree fanout — dead nodes get routed around instead of timed
out per-request.

The detector is round-driven (``P2PSystem.run_failure_detector_rounds``)
rather than self-scheduling: a standing periodic heartbeat would keep
the event queue alive forever and break every run-to-quiescence caller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import obs
from repro.reliability.channel import _CONTROL_SIZE, ReliabilityConfig
from repro.transport import Transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.overlay import messages as m

__all__ = ["FailureDetector"]

#: helpers asked to ping a target whose direct probe timed out.
_INDIRECT_PROBES = 3

_C_PROBES = obs.counter("reliability.probes")
_C_SUSPECTS = obs.counter("reliability.suspicions")
_C_CLEARED = obs.counter("reliability.suspicions_cleared")


class FailureDetector:
    """Tracks miss counts, the probe schedule and the suspect set for one peer."""

    def __init__(
        self,
        node_id: int,
        transport: Transport,
        config: ReliabilityConfig,
        rng: "np.random.Generator | None" = None,
    ) -> None:
        self.node_id = node_id
        self.transport = transport
        self.config = config
        #: shuffles the slot order and draws helpers; rounds need it.
        self.rng = rng
        #: consecutive misses per target.
        self._misses: dict[int, int] = {}
        #: (target, probe_id) probes awaiting a pong.
        self._pending: set[tuple[int, int]] = set()
        self._next_probe_id = 0
        self.suspects: set[int] = set()
        #: the pool of the last round, its shuffled slot order and the
        #: next slot.
        self._pool: set[int] = set()
        self._order: list[int] = []
        self._slot = 0
        #: pool members heard from since the last round.
        self._heard: set[int] = set()

    # ------------------------------------------------------------------
    # evidence
    # ------------------------------------------------------------------
    def note_alive(self, node_id: int) -> None:
        """Any message from ``node_id`` proves it lives."""
        if node_id in self._pool:
            self._heard.add(node_id)
        if node_id in self._misses:
            del self._misses[node_id]
        if node_id in self.suspects:
            self.suspects.discard(node_id)
            _C_CLEARED.value += 1

    def note_missed(self, node_id: int) -> None:
        """One more piece of evidence that ``node_id`` is unresponsive."""
        misses = self._misses.get(node_id, 0) + 1
        self._misses[node_id] = misses
        if misses >= self.config.suspicion_threshold:
            self._suspect(node_id)

    def _suspect(self, node_id: int) -> None:
        if node_id not in self.suspects:
            self.suspects.add(node_id)
            _C_SUSPECTS.value += 1

    def forget(self, node_id: int) -> None:
        """Silently drop all evidence about ``node_id``.

        Used when the target *left gracefully*: a clean departure is
        neither a failure (so no suspicion should accrue from its armed
        probe timeouts) nor a rehabilitation (so, unlike
        :meth:`note_alive`, no cleared-suspicion counter ticks — the
        node is gone, not healed).
        """
        self._misses.pop(node_id, None)
        self.suspects.discard(node_id)
        if self._pending:
            self._pending = {
                key for key in self._pending if key[0] != node_id
            }

    def clear_failure_state(self) -> None:
        """Forget all evidence: misses, pending probes, and suspects.

        Called when the owning node heals after a crash (and, as
        :meth:`lose_power`, when it loses its memory).  While it was
        dark its already-armed probe and retry timers kept firing with no
        pongs or acks able to arrive, accusing peers that were fine all
        along; rejoining with that stale suspect set would blackhole the
        queries and fan-outs routed through this node.
        """
        self._misses.clear()
        self._pending.clear()
        self._heard.clear()
        if self.suspects:
            _C_CLEARED.value += len(self.suspects)
            self.suspects.clear()

    lose_power = clear_failure_state

    # ------------------------------------------------------------------
    # active probing
    # ------------------------------------------------------------------
    def probe_round(self, pool: set[int]) -> None:
        """One round over ``pool``: probe the contact in the next slot,
        unless it was heard from since the previous round.

        The slot order is reshuffled when a pass ends or the pool
        changes.  ``pool`` is kept (the caller builds a fresh set each
        round), and :meth:`note_alive` records only its members.
        """
        heard = self._heard
        self._heard = set()
        if pool != self._pool:
            self._pool = pool
            self._order = []
        if not pool:
            return
        if self._slot >= len(self._order):
            members = sorted(pool)
            shuffled = self.rng.permutation(len(members)).tolist()
            self._order = [members[i] for i in shuffled]
            self._slot = 0
        target = self._order[self._slot]
        self._slot += 1
        if target not in heard:
            self.probe(target)

    def probe(self, target: int) -> None:
        """Ping ``target``; on a timeout ask helpers to ping it too.

        With helpers, a target that answers neither the direct ping nor
        an indirect one within two probe timeouts is suspected at once;
        with none (no pool, or nobody else in it), the timeout counts
        one miss.
        """
        from repro.overlay.messages import Ping

        self._next_probe_id += 1
        probe_id = self._next_probe_id
        key = (target, probe_id)
        self._pending.add(key)
        _C_PROBES.value += 1
        self._send_ping(target, Ping(probe_id=probe_id, prober_id=self.node_id))

        def on_timeout() -> None:
            if key not in self._pending:
                return  # the pong landed first
            helpers = self._helpers(target)
            if not helpers:
                self._pending.discard(key)
                self.note_missed(target)
                return
            obs.counter("reliability.indirect_probes").inc(len(helpers))
            ping = Ping(probe_id=probe_id, prober_id=self.node_id, target_id=target)
            for helper in helpers:
                self._send_ping(helper, ping)
            self.transport.schedule(self.config.probe_timeout, on_indirect_timeout)

        def on_indirect_timeout() -> None:
            if key in self._pending:
                self._pending.discard(key)
                self._suspect(target)

        self.transport.schedule(self.config.probe_timeout, on_timeout)

    def _helpers(self, target: int) -> list[int]:
        """Up to ``_INDIRECT_PROBES`` pool members, not suspects, to ask."""
        candidates = sorted(self._pool - self.suspects - {target})
        if not candidates:
            return []
        picks = self.rng.permutation(len(candidates))[:_INDIRECT_PROBES]
        return [candidates[i] for i in picks.tolist()]

    def _send_ping(self, dst: int, ping: "m.Ping") -> None:
        self.transport.send(self.node_id, dst, "ping", ping, size_bytes=_CONTROL_SIZE)

    def registrations(self) -> dict:
        """The kinds this component owns: ``kind -> (payload class, handler)``."""
        from repro.overlay.messages import Ping, Pong

        return {
            "ping": (Ping, self.handle_ping),
            "pong": (Pong, self.handle_pong),
        }

    def handle_ping(self, ping: "m.Ping", src: int) -> None:
        """Pong the prober, or forward an indirect request to its target.

        A helper forwards only a request that came straight from its
        prober and names a third node, so a ping is relayed at most once.
        """
        from repro.overlay.messages import Pong

        target = ping.target_id
        if target < 0 or target == self.node_id:
            self.transport.send(
                self.node_id,
                ping.prober_id,
                "pong",
                Pong(probe_id=ping.probe_id),
                size_bytes=_CONTROL_SIZE,
            )
        elif src == ping.prober_id and target != src:
            self._send_ping(target, ping)
        else:
            obs.counter("reliability.rejected_pings").inc()

    def handle_pong(self, pong: "m.Pong", src: int) -> None:
        # The target pongs its prober directly, so the sender is the
        # responder: a pong cannot vouch for any node but its own sender
        # (``Peer.handle_message`` has already noted that one alive).
        self._pending.discard((src, pong.probe_id))
