"""Deterministic discrete-event simulation engine.

A minimal but complete DES core: the binary heap holds
``(time, seq, event)`` tuples, so ordering is decided by C tuple comparison
and never reaches the third element (``seq`` is unique).  The sequence
number makes simultaneous events fire in scheduling order, so runs are
bit-for-bit reproducible.

The engine is deliberately synchronous and callback-based — protocol
handlers schedule follow-up events rather than blocking — which keeps the
overlay code easy to unit-test (handlers are plain methods) and fast
enough for tens of thousands of simulated nodes.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable

from repro import obs

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on scheduling misuse (negative delays, running twice, ...)."""


class Event:
    """Handle to a scheduled callback.

    The engine orders its heap by ``(time, seq)`` itself; an ``Event`` has
    no ordering of its own (comparing two raises ``TypeError``) and serves
    only to be cancelled and to tell hooks what fired.  ``seq`` is a
    monotone counter so that same-time events run in the order they were
    scheduled.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "owner")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        owner: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        #: the owning simulator, so cancellation keeps its live-event count
        #: exact; ``None`` for events constructed outside a simulator.
        self.owner = owner

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, seq={self.seq!r}, "
            f"callback={self.callback!r}, cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped.

        Deletion is lazy: the heap entry stays until it reaches the top,
        where it is dropped without advancing the clock.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._note_cancel()


class Simulator:
    """A discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(0.0, lambda: print("hello at", sim.now))
        sim.run()

    ``run`` processes events until the queue drains or a time horizon is
    reached.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._live = 0
        self.events_processed = 0
        #: optional per-callback timing hook: called as
        #: ``hook(event, elapsed_seconds)`` after each dispatched callback.
        #: ``None`` (the default) skips the wall-clock reads entirely.
        self.event_hook: Callable[[Event, float], None] | None = None
        #: callbacks fired when :meth:`run` drains the queue after having
        #: processed at least one event — i.e. at every quiescent point of
        #: the simulation.  Registered via :meth:`on_quiescence`; used by
        #: the chaos harness to check system-wide invariants exactly when
        #: no message is in flight.
        self._quiescence_hooks: list[Callable[[], None]] = []
        self._c_processed = obs.counter("sim.events_processed")
        self._g_queue_depth = obs.gauge("sim.queue_depth")

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def _note_cancel(self) -> None:
        """An owned event was cancelled; keep :meth:`pending` exact."""
        self._live -= 1

    def on_quiescence(self, hook: Callable[[], None]) -> Callable[[], None]:
        """Register ``hook`` to fire whenever :meth:`run` reaches quiescence.

        Quiescence means the event queue drained after at least one event
        was processed this run — every message has landed or been dropped,
        no callback is mid-flight.  Hooks run in registration order, while
        the simulator is still marked running, so a hook that re-enters
        :meth:`run` raises :class:`SimulationError` — hooks must observe,
        not drive.  Returns a zero-argument unregister function.
        """
        self._quiescence_hooks.append(hook)

        def unregister() -> None:
            try:
                self._quiescence_hooks.remove(hook)
            except ValueError:
                pass

        return unregister

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self._now + delay
        seq = self._seq
        event = Event(time, seq, callback, self)
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, event))
        self._live += 1
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self._now}"
            )
        return self.schedule(time - self._now, callback)

    def run(self, until: float | None = None) -> None:
        """Process events until the queue drains or ``until`` is passed.

        ``until`` stops the run once the next event would fire after that
        time (the clock is advanced to ``until``).  A time before ``now``
        raises :class:`SimulationError`: the clock never runs backwards.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until}, current time is {self._now}"
            )
        self._running = True
        trace_log = obs.TRACE
        heappop = heapq.heappop
        queue = self._queue
        try:
            processed_this_run = 0
            while queue:
                time, seq, event = queue[0]
                if until is not None and time > until:
                    self._now = until
                    return
                if event.cancelled:
                    heappop(queue)
                    continue
                heappop(queue)
                self._live -= 1
                event.owner = None  # cancel() after dispatch must not count
                self._now = time
                if trace_log.enabled:
                    trace_log.emit("event_dispatch", t=time, seq=seq)
                # self.event_hook is re-read per event: a callback may
                # install or remove the hook mid-run.
                event_hook = self.event_hook
                if event_hook is not None:
                    started = perf_counter()
                    event.callback()
                    event_hook(event, perf_counter() - started)
                else:
                    event.callback()
                self.events_processed += 1
                processed_this_run += 1
            if until is not None and until > self._now:
                self._now = until
            if processed_this_run and self._quiescence_hooks:
                # The queue drained: every message landed or was dropped.
                # tuple() so a hook unregistering itself is safe mid-sweep.
                for hook in tuple(self._quiescence_hooks):
                    hook()
        finally:
            self._c_processed.value += processed_this_run
            self._g_queue_depth.value = self._live
            self._running = False

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return self._live

    def clear(self) -> None:
        """Drop all pending events (used between experiment phases)."""
        for _, _, event in self._queue:
            event.owner = None  # a later cancel() must not double-count
        self._queue.clear()
        self._live = 0
