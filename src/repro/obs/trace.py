"""Typed trace events behind a global on/off switch.

A :class:`TraceLog` records what the simulation core *did* — event
dispatch, message send/deliver/drop, query issue/resolve, adaptation
phase transitions, rebalance moves — as flat, JSON-ready records.  It is
disabled by default, and the contract with the hot paths is:

* call sites guard with ``if TRACE.enabled:`` before building any event
  fields, so a disabled trace costs one attribute read per potential
  event (the <5 % overhead budget of the instrumented experiments);
* :meth:`TraceLog.emit` itself also checks ``enabled``, so unguarded
  call sites stay correct, just marginally slower.

Event kinds used by the core (callers may add their own):

========================  ====================================================
kind                      fields
========================  ====================================================
``event_dispatch``        ``t`` (sim time), ``seq``
``msg_send``              ``t``, ``src``, ``dst``, ``msg`` (kind), ``size``
``msg_deliver``           ``t``, ``src``, ``dst``, ``msg``
``msg_drop``              ``t``, ``src``, ``dst``, ``msg``, ``reason``
``query_issue``           ``t``, ``node``, ``query``, ``category``
``query_resolve``         ``t``, ``query``, ``hops``, ``results``
``query_fail``            ``t``, ``node``, ``query``, ``reason``
``gossip``                ``t``, ``node``, ``partner``
``adapt_phase``           ``t``, ``round``, ``phase``
``rebalance_move``        ``t``, ``round``, ``category``, ``source``, ``target``
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["TraceEvent", "TraceLog"]

#: events a :class:`TraceLog` holds before it compacts.
CAPACITY = 1_000_000


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded trace event."""

    kind: str
    fields: dict

    def snapshot(self) -> dict:
        record = dict(self.fields)
        # The envelope keys win over any same-named field.
        record["type"] = "trace"
        record["kind"] = self.kind
        return record


class TraceLog:
    """An in-memory, bounded log of :class:`TraceEvent`.

    :data:`CAPACITY` bounds memory on long runs: when full, the oldest half
    is discarded in one O(n) compaction (amortized O(1) per event) and
    ``dropped_events`` records how many were lost, so an exported trace
    is never silently truncated.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.dropped_events = 0
        self._events: list[TraceEvent] = []

    # ------------------------------------------------------------------
    # switching
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def emit(self, kind: str, /, **fields) -> None:
        """Record one event; a no-op when the log is disabled.

        ``kind`` is positional-only so a field may also be named ``kind``
        (message traces record the protocol message kind that way).
        """
        if not self.enabled:
            return
        if len(self._events) >= CAPACITY:
            keep = CAPACITY // 2
            self.dropped_events += len(self._events) - keep
            del self._events[: len(self._events) - keep]
        self._events.append(TraceEvent(kind=kind, fields=fields))

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def events(self) -> list[TraceEvent]:
        """The recorded events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def clear(self) -> None:
        """Drop all recorded events (the enabled flag is untouched)."""
        self._events.clear()
        self.dropped_events = 0
