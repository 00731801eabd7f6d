"""End-to-end reliable delivery on top of the UDP-like network.

The paper's protocols assume the internet substrate loses messages ("if
no live node exists, the query will fail", Section 3.3) and only sketch
the recovery machinery (monitoring timeouts, leader probes).  This
package makes reliability a first-class, reusable layer:

* :class:`ReliableChannel` — per-peer ack/retry sender with capped
  exponential backoff, deterministic seeded jitter, bounded attempts,
  and receiver-side duplicate suppression keyed on a ``delivery_id``
  that stays stable across retransmissions (at-least-once delivery with
  exactly-once effects).
* :class:`FailureDetector` — SWIM-style probing (one round-robin direct
  ping a round, indirect pings before suspicion); its suspect list
  feeds NRT target selection, leader election, and the monitoring tree
  so dead nodes are routed around instead of timed out per-request.

Which kinds go through the channel is a transport property:
:data:`repro.transport.RELIABLE_KINDS`, the kinds whose protocol has no
deadline of its own yet; every other kind is recovered above the channel
(``repro.transport.reliable`` names each recoverer).

Everything is off by default (``ReliabilityConfig(enabled=False)``):
fault-free experiment runs stay byte-identical, and the jitter stream is
never consulted unless a retry actually fires.
"""

from repro.reliability.channel import ReliabilityConfig, ReliableChannel
from repro.reliability.detector import FailureDetector

__all__ = [
    "ReliabilityConfig",
    "ReliableChannel",
    "FailureDetector",
]
