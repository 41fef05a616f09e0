"""Unit and property tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleError, SimulationError
from repro.sim.engine import Engine


class TestScheduling:
    def test_runs_in_time_order(self):
        eng = Engine()
        seen = []
        eng.schedule(2.0, seen.append, "late")
        eng.schedule(1.0, seen.append, "early")
        eng.run()
        assert seen == ["early", "late"]

    def test_clock_advances_to_event_time(self):
        eng = Engine()
        times = []
        eng.schedule(1.5, lambda: times.append(eng.now))
        eng.schedule(3.25, lambda: times.append(eng.now))
        eng.run()
        assert times == [1.5, 3.25]

    def test_ties_broken_by_priority_then_insertion(self):
        eng = Engine()
        seen = []
        eng.schedule(1.0, seen.append, "a", priority=5)
        eng.schedule(1.0, seen.append, "b", priority=1)
        eng.schedule(1.0, seen.append, "c", priority=1)
        eng.run()
        assert seen == ["b", "c", "a"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ScheduleError):
            Engine().schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        eng = Engine(start_time=10.0)
        with pytest.raises(ScheduleError):
            eng.schedule_at(9.0, lambda: None)

    def test_non_callable_rejected(self):
        with pytest.raises(ScheduleError):
            Engine().schedule(1.0, "not callable")  # type: ignore[arg-type]

    def test_schedule_from_callback(self):
        eng = Engine()
        seen = []
        def first():
            seen.append(("first", eng.now))
            eng.schedule(2.0, lambda: seen.append(("second", eng.now)))
        eng.schedule(1.0, first)
        eng.run()
        assert seen == [("first", 1.0), ("second", 3.0)]

    def test_zero_delay_runs_at_same_time_after_current(self):
        eng = Engine()
        seen = []
        def a():
            eng.schedule(0.0, seen.append, "b")
            seen.append("a")
        eng.schedule(1.0, a)
        eng.run()
        assert seen == ["a", "b"]
        assert eng.now == 1.0


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        eng = Engine()
        seen = []
        h = eng.schedule(1.0, seen.append, "x")
        h.cancel()
        eng.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        eng = Engine()
        h = eng.schedule(1.0, lambda: None)
        h.cancel()
        h.cancel()
        eng.run()

    def test_cancel_from_earlier_event(self):
        eng = Engine()
        seen = []
        h = eng.schedule(2.0, seen.append, "victim")
        eng.schedule(1.0, h.cancel)
        eng.run()
        assert seen == []


class TestRunControl:
    def test_run_until_advances_clock_exactly(self):
        eng = Engine()
        eng.schedule(1.0, lambda: None)
        assert eng.run(until=5.0) == 5.0
        assert eng.now == 5.0

    def test_run_until_leaves_later_events_pending(self):
        eng = Engine()
        seen = []
        eng.schedule(1.0, seen.append, "in")
        eng.schedule(10.0, seen.append, "out")
        eng.run(until=5.0)
        assert seen == ["in"]
        eng.run()
        assert seen == ["in", "out"]

    def test_max_events(self):
        eng = Engine()
        seen = []
        for i in range(5):
            eng.schedule(float(i + 1), seen.append, i)
        eng.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_stop_from_callback(self):
        eng = Engine()
        seen = []
        eng.schedule(1.0, seen.append, "a")
        eng.schedule(2.0, eng.stop)
        eng.schedule(3.0, seen.append, "b")
        eng.run()
        assert seen == ["a"]

    def test_run_not_reentrant(self):
        eng = Engine()
        def reenter():
            with pytest.raises(SimulationError):
                eng.run()
        eng.schedule(1.0, reenter)
        eng.run()

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_events_executed_counter(self):
        eng = Engine()
        for i in range(4):
            eng.schedule(float(i), lambda: None)
        eng.run()
        assert eng.events_executed == 4


class TestProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_execution_times_nondecreasing(self, delays):
        eng = Engine()
        fired = []
        for d in delays:
            eng.schedule(d, lambda: fired.append(eng.now))
        eng.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                        allow_nan=False),
                              st.booleans()),
                    min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_cancelled_subset_never_fires(self, items):
        eng = Engine()
        fired = []
        handles = []
        for i, (d, cancel) in enumerate(items):
            handles.append((eng.schedule(d, fired.append, i), cancel))
        for h, cancel in handles:
            if cancel:
                h.cancel()
        eng.run()
        expected = {i for i, (_, c) in enumerate(items) if not c}
        assert set(fired) == expected
