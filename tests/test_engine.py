"""Tests for repro.sim.engine — the discrete-event core."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Event, SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        sim = Simulator()
        log = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: log.append(n))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(1.0, lambda: log.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 2.0)]

    def test_schedule_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        log = []
        event = sim.schedule(1.0, lambda: log.append("x"))
        event.cancel()
        sim.run()
        assert log == []

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestRunBounds:
    def test_reentrant_run_rejected(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1

    def test_pending_exact_under_double_cancel(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()  # idempotent: must not decrement twice
        assert sim.pending() == 1

    def test_cancel_after_fire_does_not_corrupt_pending(self):
        sim = Simulator()
        seen = []
        fired = sim.schedule(1.0, lambda: None)

        def cancel_fired():
            fired.cancel()  # already dispatched; must be a no-op for pending
            seen.append(sim.pending())

        sim.schedule(1.5, cancel_fired)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert seen == [1]

    def test_pending_tracks_drain(self):
        sim = Simulator()
        seen = []
        for i in range(4):
            sim.schedule(float(i + 1), lambda: seen.append(sim.pending()))
        sim.run()
        assert seen == [3, 2, 1, 0]
        assert sim.pending() == 0


class TestInstrumentation:
    def test_event_hook_times_callbacks(self):
        sim = Simulator()
        seen = []
        sim.event_hook = lambda event, elapsed: seen.append((event.seq, elapsed))
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert [seq for seq, _ in seen] == [0, 1]
        assert all(elapsed >= 0.0 for _, elapsed in seen)

    def test_hook_installed_mid_run_takes_effect(self):
        sim = Simulator()
        seen = []

        def install():
            sim.event_hook = lambda event, elapsed: seen.append(event.seq)

        sim.schedule(1.0, install)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert seen == [1]  # only the event after installation is timed

    def test_events_processed_counter_in_registry(self):
        from repro import obs

        counter = obs.counter("sim.events_processed")
        before = counter.value
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert counter.value == before + 3

    def test_event_dispatch_traced_when_enabled(self):
        from repro import obs

        log = obs.TRACE
        log.clear()
        log.enable()
        try:
            sim = Simulator()
            sim.schedule(1.0, lambda: None)
            sim.run()
        finally:
            log.disable()
        kinds = [event.kind for event in log]
        assert "event_dispatch" in kinds
        log.clear()


class TestEventHandle:
    def test_events_are_not_orderable(self):
        # The heap holds (time, seq, event) tuples and seq is unique, so no
        # comparison ever reaches the handle.  A bare Event pushed into the
        # heap must fail on its first comparison, not quietly bring a
        # Python-level ``__lt__`` back into the event loop.
        early = Event(1.0, 0, lambda: None)
        late = Event(2.0, 1, lambda: None)
        with pytest.raises(TypeError):
            early < late
        heap = [early]
        with pytest.raises(TypeError):
            heapq.heappush(heap, late)


class _ReferenceQueue:
    """What the engine must do, written without a heap or lazy deletion:
    live events in a dict, the next one found by ``min`` over (time, seq)."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.live = {}  # seq -> time
        self.processed = 0

    def schedule(self, delay):
        self.live[self.seq] = self.now + delay
        self.seq += 1

    def cancel(self, seq):
        self.live.pop(seq, None)  # fired or cancelled: a no-op

    def run(self, dispatch):
        while self.live:
            seq = min(self.live, key=lambda s: (self.live[s], s))
            self.now = self.live.pop(seq)
            dispatch(seq)
            self.processed += 1


# Dyadic values: sums and differences are exact, and ties are common.
_delays = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.5])
_steps = st.one_of(
    # A scheduled event may, when it fires, schedule a follow-up after the
    # given delay and cancel the handle at the given index.
    st.tuples(st.just("schedule"), _delays, st.none() | _delays,
              st.none() | st.integers(0, 40)),
    st.tuples(st.just("schedule_at"), _delays),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("run")),
)


class TestAgainstReferenceModel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_steps, max_size=40))
    def test_random_sequences_match_reference(self, steps):
        sim, model = Simulator(), _ReferenceQueue()
        handles = []  # the engine's Event for each seq
        plans = {}  # seq -> (follow-up delay, index of a handle to cancel)
        fired, expected = [], []

        def on_fire(seq, now, log, schedule, cancel, scheduled):
            log.append((seq, now))
            follow_up, victim = plans.get(seq, (None, None))
            if follow_up is not None:
                schedule(follow_up)
            if victim is not None:
                cancel(victim % scheduled())

        def sim_schedule(delay, absolute=False):
            seq = len(handles)
            handles.append(
                sim.schedule_at(sim.now + delay, lambda: sim_fire(seq))
                if absolute else sim.schedule(delay, lambda: sim_fire(seq))
            )

        def sim_fire(seq):
            on_fire(seq, sim.now, fired, sim_schedule,
                    lambda index: handles[index].cancel(),
                    lambda: len(handles))

        def model_fire(seq):
            on_fire(seq, model.now, expected, model.schedule, model.cancel,
                    lambda: model.seq)

        for step in steps:
            kind = step[0]
            if kind in ("schedule", "schedule_at"):
                if kind == "schedule":
                    plans[model.seq] = step[2:]
                sim_schedule(step[1], absolute=kind == "schedule_at")
                model.schedule(step[1])
            elif kind == "cancel" and handles:
                handles[step[1] % len(handles)].cancel()
                model.cancel(step[1] % model.seq)
            elif kind == "run":
                model.run(model_fire)
                sim.run()
            assert fired == expected
            assert sim.now == model.now
            assert sim.events_processed == model.processed
            assert sim.pending() == len(model.live)
            assert sim._seq == model.seq
