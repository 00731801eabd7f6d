"""Tests for repro.sim.engine — the discrete-event core."""

import pytest

from repro.sim.engine import SimulationError, Simulator


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
    def test_until_stops_early(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(10.0, lambda: log.append(10))
        sim.run(until=5.0)
        assert log == [1]
        assert sim.now == 5.0
        sim.run()
        assert log == [1, 10]

    def test_until_advances_clock_with_no_events(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_until_in_the_past_is_rejected_and_clock_holds(self):
        sim = Simulator()
        log = []
        sim.run(until=10.0)
        sim.schedule(5.0, lambda: log.append(sim.now))
        with pytest.raises(SimulationError, match="cannot run until 3.0"):
            sim.run(until=3.0)
        assert sim.now == 10.0
        sim.run()
        assert log == [15.0]

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.1, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_max_events_preserves_budget_tripping_event(self):
        # Regression: the event that trips the budget must stay queued so
        # the caller can catch the error and resume without losing it.
        sim = Simulator()
        log = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: log.append(n))
        with pytest.raises(SimulationError):
            sim.run(max_events=1)
        assert log == ["a"]
        assert sim.pending() == 2  # 'b' and 'c' survive the exhaustion
        sim.run()
        assert log == ["a", "b", "c"]  # each fires exactly once, in order

    def test_max_events_resume_in_steps(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(float(i), lambda i=i: log.append(i))
        for _ in range(2):
            with pytest.raises(SimulationError):
                sim.run(max_events=2)
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_cancelled_events_do_not_consume_budget(self):
        sim = Simulator()
        log = []
        for i in range(3):
            sim.schedule(1.0, lambda i=i: log.append(i)).cancel()
        sim.schedule(2.0, lambda: log.append("live"))
        sim.run(max_events=1)
        assert log == ["live"]

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

    def test_pending_and_clear(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        event.cancel()
        assert sim.pending() == 1
        sim.clear()
        assert sim.pending() == 0

    def test_pending_exact_under_double_cancel(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()  # idempotent: must not decrement twice
        assert sim.pending() == 1

    def test_cancel_after_fire_does_not_corrupt_pending(self):
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        fired.cancel()  # already dispatched; must be a no-op for pending
        assert sim.pending() == 1

    def test_cancel_after_clear_does_not_go_negative(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.clear()
        event.cancel()
        assert sim.pending() == 0

    def test_pending_tracks_drain(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(until=2.5)
        assert sim.pending() == 2
        sim.run()
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
        kinds = [event.kind for event in log.events()]
        assert "event_dispatch" in kinds
        log.clear()


class TestPeriodic:
    def test_fires_until_cancelled(self):
        sim = Simulator()
        ticks = []
        cancel = sim.schedule_periodic(1.0, lambda: ticks.append(sim.now))
        sim.run(until=3.5)
        cancel()
        sim.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_start_delay(self):
        sim = Simulator()
        ticks = []
        cancel = sim.schedule_periodic(
            2.0, lambda: ticks.append(sim.now), start_delay=0.5
        )
        sim.run(until=5.0)
        cancel()
        assert ticks == [0.5, 2.5, 4.5]

    def test_rejects_nonpositive_interval(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_periodic(0.0, lambda: None)

    def test_cancel_mid_flight(self):
        sim = Simulator()
        ticks = []
        cancel = sim.schedule_periodic(1.0, lambda: ticks.append(sim.now))
        sim.schedule(2.5, cancel)
        sim.run()
        assert ticks == [1.0, 2.0]
