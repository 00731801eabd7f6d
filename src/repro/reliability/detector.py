"""Heartbeat failure detection with a suspicion threshold.

The paper's protocols detect death per-request (monitoring timeouts,
leader probes); the :class:`FailureDetector` generalizes that machinery
into a shared suspect list.  Evidence flows in from three sources:

* **active probes** — :meth:`probe` sends a ping and counts a miss when
  no pong arrives within ``probe_timeout``;
* **channel give-ups** — a reliable delivery exhausting its attempts
  counts as a miss (wired via ``ReliableChannel.on_give_up``);
* **any received message** — :meth:`note_alive` clears the target's
  misses and suspicion, so a suspect that speaks is rehabilitated.

A node becomes a *suspect* after ``suspicion_threshold`` consecutive
misses.  Suspects are excluded from NRT target selection, leader
election, and monitoring-tree fanout — dead nodes get routed around
instead of timed out per-request.

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
    from repro.overlay import messages as m

__all__ = ["FailureDetector"]

_C_PROBES = obs.counter("reliability.probes")
_C_SUSPECTS = obs.counter("reliability.suspicions")
_C_CLEARED = obs.counter("reliability.suspicions_cleared")


class FailureDetector:
    """Tracks miss counts and the suspect set for one peer."""

    def __init__(
        self, node_id: int, transport: Transport, config: ReliabilityConfig
    ) -> None:
        self.node_id = node_id
        self.transport = transport
        self.config = config
        #: consecutive misses per target.
        self._misses: dict[int, int] = {}
        #: (target, probe_id) probes awaiting a pong.
        self._pending: set[tuple[int, int]] = set()
        self._next_probe_id = 0
        self.suspects: set[int] = set()

    def is_suspect(self, node_id: int) -> bool:
        return node_id in self.suspects

    # ------------------------------------------------------------------
    # evidence
    # ------------------------------------------------------------------
    def note_alive(self, node_id: int) -> None:
        """Any message from ``node_id`` proves it lives."""
        if node_id in self._misses:
            del self._misses[node_id]
        if node_id in self.suspects:
            self.suspects.discard(node_id)
            _C_CLEARED.value += 1

    def note_missed(self, node_id: int) -> None:
        """One more piece of evidence that ``node_id`` is unresponsive."""
        misses = self._misses.get(node_id, 0) + 1
        self._misses[node_id] = misses
        if misses >= self.config.suspicion_threshold and node_id not in self.suspects:
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
        if self.suspects:
            _C_CLEARED.value += len(self.suspects)
            self.suspects.clear()

    lose_power = clear_failure_state

    # ------------------------------------------------------------------
    # active probing
    # ------------------------------------------------------------------
    def probe(self, target: int) -> None:
        """Ping ``target``; count a miss unless a pong arrives in time."""
        from repro.overlay.messages import Ping

        self._next_probe_id += 1
        key = (target, self._next_probe_id)
        self._pending.add(key)
        _C_PROBES.value += 1
        self.transport.send(
            self.node_id,
            target,
            "ping",
            Ping(probe_id=self._next_probe_id, prober_id=self.node_id),
            size_bytes=_CONTROL_SIZE,
        )

        def on_timeout() -> None:
            if key not in self._pending:
                return  # the pong landed first
            self._pending.discard(key)
            self.note_missed(target)

        self.transport.schedule(self.config.probe_timeout, on_timeout)

    def registrations(self) -> dict:
        """The kinds this component owns: ``kind -> (payload class, handler)``."""
        from repro.overlay.messages import Ping, Pong

        return {
            "ping": (Ping, self.handle_ping),
            "pong": (Pong, self.handle_pong),
        }

    def handle_ping(self, ping: "m.Ping", src: int) -> None:
        from repro.overlay.messages import Pong

        self.transport.send(
            self.node_id,
            ping.prober_id,
            "pong",
            Pong(probe_id=ping.probe_id, responder_id=self.node_id),
            size_bytes=_CONTROL_SIZE,
        )

    def handle_pong(self, pong: "m.Pong", src: int) -> None:
        self._pending.discard((pong.responder_id, pong.probe_id))
        self.note_alive(pong.responder_id)
