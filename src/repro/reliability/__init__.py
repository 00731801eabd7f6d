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
* :class:`FailureDetector` — heartbeat (ping/pong) probing with a
  suspicion threshold; its suspect list feeds NRT target selection,
  leader election, and the monitoring tree so dead nodes are routed
  around instead of timed out per-request.
* :data:`RELIABLE_KINDS` — the request/response message kinds a peer
  sends through the channel.  Queries and their answers are deliberately
  absent: they get end-to-end deadline failover in the peer instead
  (retrying a different cluster member beats re-sending to the same one,
  and one mechanism recovers a lost query and a lost answer alike).

Everything is off by default (``ReliabilityConfig(enabled=False)``):
fault-free experiment runs stay byte-identical, and the jitter stream is
never consulted unless a retry actually fires.
"""

from repro.reliability.channel import (
    RELIABLE_KINDS,
    ReliabilityConfig,
    ReliableChannel,
)
from repro.reliability.detector import FailureDetector

__all__ = [
    "RELIABLE_KINDS",
    "ReliabilityConfig",
    "ReliableChannel",
    "FailureDetector",
]
