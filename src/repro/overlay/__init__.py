"""The paper's P2P overlay: metadata, protocols, and dynamics.

Implements Section 3 (architecture and query processing) and Section 6
(dynamics) on top of the :mod:`repro.sim` substrate:

* :mod:`repro.overlay.metadata` — the Figure 1 node data structures: the
  Document Table (DT), the Document Category Routing Table (DCRT), and the
  Node Routing Table (NRT);
* :mod:`repro.overlay.messages` — protocol message types;
* :mod:`repro.overlay.peer` — the per-node core: tables, transport,
  storage, lifecycle, and the one ``kind -> (payload class, handler)``
  dispatch table its protocol components register into;
* :mod:`repro.overlay.query_protocol` — the two-step query processing of
  Section 3.3, overload signals and the requester cache;
* :mod:`repro.overlay.cluster` — cluster graphs and leader election
  (Section 6.1.1);
* :mod:`repro.overlay.membership_protocol` — the publish and join/leave
  protocols (Sections 6.2, 6.3) and DCRT gossip, node side;
* :mod:`repro.overlay.adaptation_protocol` — election, monitoring and
  reassign/transfer (Section 6.1), node side;
* :mod:`repro.overlay.adaptation` — the four-phase adaptation mechanism
  (Section 6.1.2), deployment side;
* :mod:`repro.overlay.rebalance` — the lazy rebalancing protocol with
  ``move_counter`` conflict resolution;
* :mod:`repro.overlay.epidemic` — anti-entropy dissemination of metadata
  updates;
* :mod:`repro.overlay.cache` — the requester-side LRU document cache
  that registers cached copies as servable holders;
* :mod:`repro.overlay.misbehavior` — arming a lying peer (fault
  injection) and the world's response-integrity audit;
* :mod:`repro.overlay.replication_manager` — the one replica loop: each
  document's target (the healing floor plus a demand term that grows fast
  on pressure and shrinks slowly on idle), its count and its placement,
  driven by the healing and replication rounds and graceful shutdown;
* :mod:`repro.overlay.system` — :class:`~repro.overlay.system.P2PSystem`,
  the world core that wires a built system instance into a live
  simulation; its books live in :mod:`repro.overlay.ledger` (what peers
  report) and :mod:`repro.overlay.topology` (cluster membership and
  graphs), and the durability subsystem in :mod:`repro.overlay.recovery`.
"""

from repro.overlay.cache import DocumentCache
from repro.overlay.metadata import DCRT, NRT, DocumentTable
from repro.overlay.replication_manager import (
    ReplicationConfig,
    ReplicationManager,
)
from repro.overlay.system import P2PSystem, P2PSystemConfig

__all__ = [
    "DCRT",
    "NRT",
    "DocumentCache",
    "DocumentTable",
    "P2PSystem",
    "P2PSystemConfig",
    "ReplicationConfig",
    "ReplicationManager",
]
