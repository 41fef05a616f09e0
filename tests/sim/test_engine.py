"""Unit and property tests for the discrete-event engine, and its
differential test against the event-object heap engine it replaced
(``tests/oracles/engine_reference.py``)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleError, SimulationError
from repro.sim import engine as engine_module
from repro.sim.engine import Engine
from tests.oracles import engine_reference


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

    def test_run_not_reentrant(self):
        eng = Engine()
        def reenter():
            with pytest.raises(SimulationError):
                eng.run()
        eng.schedule(1.0, reenter)
        eng.run()

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


class TestNaNRejected:
    """A NaN time compares false both ways, so it would slip past the
    past-time guard and corrupt the heap order."""

    def test_nan_delay(self):
        eng = Engine()
        with pytest.raises(ScheduleError):
            eng.schedule(float("nan"), lambda: None)
        assert eng.pending == 0

    def test_nan_time(self):
        eng = Engine()
        with pytest.raises(ScheduleError):
            eng.schedule_at(float("nan"), lambda: None)
        assert eng.pending == 0

    def test_nan_stream_start(self):
        eng = Engine()
        with pytest.raises(ScheduleError):
            eng.schedule_stream([0.0], ["a"], print, start_at=float("nan"))
        assert eng.pending == 0

    def test_nan_stream_speedup(self):
        eng = Engine()
        with pytest.raises(ScheduleError):
            eng.schedule_stream([0.0, 1.0], ["a", "b"], print,
                                speedup=float("nan"))
        assert eng.pending == 0

    @pytest.mark.parametrize("times", [[0.0, float("nan"), 2.0],
                                       [0.0, 2.0, 1.0],
                                       [0.0, 1.0, float("inf")]])
    def test_stream_times_checked_past_first_record(self, times):
        eng = Engine()
        delivered = []
        with pytest.raises(ScheduleError):
            eng.schedule_stream(times, "abc", delivered.append)
        assert eng.pending == 0
        eng.schedule(0.0, delivered.append, "x")  # no sequence block taken
        eng.run()
        assert delivered == ["x"]


class TestInlineReplay:
    def test_lone_stream_pushes_once(self, monkeypatch):
        pushes = []
        real = engine_module._heappush
        monkeypatch.setattr(engine_module, "_heappush",
                            lambda heap, entry: (pushes.append(entry[2]),
                                                 real(heap, entry)))
        eng = Engine()
        seen = []
        eng.schedule_stream([float(i) for i in range(100)], range(100),
                            seen.append)
        eng.run()
        assert seen == list(range(100))
        assert pushes == [0]
        assert eng.events_executed == 100
        assert eng.now == 99.0

    def test_sink_sees_clock_and_count(self):
        eng = Engine()
        seen = []
        eng.schedule_stream(
            [0.0, 1.0, 1.0], ["a", "b", "c"],
            lambda p: seen.append((p, eng.now, eng.events_executed,
                                   eng.pending)),
            start_at=2.0, speedup=2.0)
        eng.run()
        assert seen == [("a", 2.0, 0, 1), ("b", 2.5, 1, 1), ("c", 2.5, 2, 0)]

    def test_raising_sink_leaves_rest_scheduled(self):
        eng = Engine()
        seen = []

        def sink(p):
            if p == 1:
                raise RuntimeError("boom")
            seen.append(p)

        eng.schedule_stream([0.0, 1.0, 2.0, 3.0], range(4), sink)
        with pytest.raises(RuntimeError):
            eng.run()
        assert (seen, eng.pending, eng.events_executed) == ([0], 1, 1)
        eng.run()
        assert seen == [0, 2, 3]


class CountingColumn:
    """A payload column that logs every index the engine reads."""

    def __init__(self, items):
        self.items = list(items)
        self.reads = []

    def __len__(self):
        return len(self.items)

    def __getitem__(self, idx):
        self.reads.append(idx)
        return self.items[idx]

    def assert_read_once_in_order(self, delivered):
        """Every index up to the last delivered one was read once, in
        order, and no later one was read at all."""
        k = len(self.reads)
        assert self.reads == list(range(k))
        assert self.items[:k] == delivered


class TestPayloadColumnReads:
    """The cursor takes payload ``i`` exactly once, when it delivers
    record ``i``, so a column may build its payloads on demand."""

    def stream(self, eng, n, sink, **kwargs):
        column = CountingColumn(range(n))
        eng.schedule_stream([float(i) for i in range(n)], column, sink,
                            **kwargs)
        return column

    def test_plain_run(self):
        eng = Engine()
        seen = []
        column = self.stream(eng, 6, seen.append)
        eng.schedule_at(2.0, seen.append, "tick")  # forces a heap pass
        eng.run()
        assert seen == [0, 1, 2, "tick", 3, 4, 5]
        column.assert_read_once_in_order([0, 1, 2, 3, 4, 5])

    def test_raising_sink_then_later_run(self):
        eng = Engine()
        seen = []

        def sink(p):
            if p == 2:
                raise RuntimeError("boom")
            seen.append(p)

        column = self.stream(eng, 5, sink)
        with pytest.raises(RuntimeError):
            eng.run()
        assert column.reads == [0, 1, 2]
        eng.run()
        assert seen == [0, 1, 3, 4]
        column.assert_read_once_in_order([0, 1, 2, 3, 4])

    def test_run_in_segments(self):
        eng = Engine()
        seen = []
        column = self.stream(eng, 5, seen.append)
        assert eng.run(until=0.5) == 0.5
        assert column.reads == [0]
        assert eng.run(until=2.0) == 2.0
        assert column.reads == [0, 1, 2]
        eng.run(until=3.5)
        assert column.reads == [0, 1, 2, 3]
        eng.run()
        assert seen == [0, 1, 2, 3, 4]
        column.assert_read_once_in_order([0, 1, 2, 3, 4])

    def test_columns_must_match(self):
        eng = Engine()
        with pytest.raises(ScheduleError, match="2 times for 3 payloads"):
            eng.schedule_stream([0.0, 1.0], ["a", "b", "c"], print)
        assert eng.pending == 0


# ----------------------------------------------------------------------
# differential oracle: random programs on both engines
# ----------------------------------------------------------------------
class Boom(Exception):
    pass


def execute(engine_cls, program):
    """Run one generated program; return its execution log.

    ``program`` is ``(ops, behaviors, budget)``: the top-level operations,
    the action lists callbacks and stream sinks run when they fire
    (indexed by behavior), and how many events the program may schedule in
    total (callbacks scheduling callbacks would otherwise not end).
    """
    ops, behaviors, budget = program
    eng = engine_cls()
    log = []
    labels = iter(range(10**9))
    left = [budget]
    counted = []  # the production engine's payload columns

    def note(tag):
        log.append((tag, eng.now, eng.events_executed, eng.pending))

    def fire(label, behavior):
        note(label)
        for action in behaviors[behavior]:
            perform(action)

    def sink(payload):
        fire(*payload)

    def perform(action):
        kind = action[0]
        if kind in ("sched", "sched_at"):
            if left[0] <= 0:
                return
            left[0] -= 1
            _, offset, prio, behavior = action
            if kind == "sched":
                eng.schedule(offset, fire, next(labels), behavior,
                             priority=prio)
            else:
                eng.schedule_at(eng.now + offset, fire, next(labels),
                                behavior, priority=prio)
        elif kind == "stream":
            _, offset, speedup, prio, times, behavior = action
            if left[0] < len(times):
                return
            left[0] -= len(times)
            records = [(t, (next(labels), behavior)) for t in times]
            if engine_cls is Engine:  # the same records, as two columns
                column = CountingColumn(payload for _, payload in records)
                counted.append(column)
                columns = (list(times), column)
            else:
                columns = (records,)
            eng.schedule_stream(*columns, sink, start_at=eng.now + offset,
                                speedup=speedup, priority=prio)
        elif kind == "raise":
            raise Boom(eng.events_executed)
        elif kind == "run":
            _, until = action
            log.append(("run", eng.run(
                until=None if until is None else eng.now + until)))
        else:  # pragma: no cover - generator and interpreter disagree
            raise AssertionError(kind)

    def attempt(op):
        try:
            perform(op)
        except Boom as exc:
            log.append(("raised", exc.args[0]))
        except SimulationError as exc:
            log.append(("error", str(exc)))

    for op in ops:
        attempt(op)
        note("after")
    while eng.pending:  # drain what the program left, past any raise
        attempt(("run", None))
        note("drain")
    fired = {entry[0] for entry in log if type(entry[0]) is int}
    for column in counted:
        column.assert_read_once_in_order(
            [item for item in column.items if item[0] in fired])
    return log


TIMES = st.sampled_from((0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.5))
PRIORITIES = st.integers(-1, 1)
SPEEDUPS = st.sampled_from((0.5, 1.0, 1.0, 2.0, 3.0))


@st.composite
def programs(draw, n_ops=12, n_behaviors=4, budget=40):
    behavior = st.integers(0, n_behaviors - 1)
    schedule = st.tuples(st.sampled_from(("sched", "sched_at")), TIMES,
                         PRIORITIES, behavior)
    stream = st.tuples(st.just("stream"), TIMES, SPEEDUPS, PRIORITIES,
                       # out-of-order records break the stream's contract;
                       # both engines must then fail the same way
                       st.lists(TIMES, min_size=1, max_size=8).map(sorted)
                       | st.lists(TIMES, min_size=2, max_size=4),
                       behavior)
    run = st.tuples(st.just("run"), st.one_of(st.none(), TIMES))
    callback_action = st.one_of(schedule, stream, st.just(("raise",)), run)
    behaviors = draw(st.lists(st.lists(callback_action, max_size=3),
                              min_size=n_behaviors, max_size=n_behaviors))
    ops = draw(st.lists(st.one_of(schedule, stream, run),
                        min_size=1, max_size=n_ops))
    return ops, behaviors, budget


def assert_same_as_reference(program):
    assert (execute(Engine, program)
            == execute(engine_reference.Engine, program))


class TestReferenceEngine:
    """The tuple-heap engine with its inline replay cursor must produce the
    execution log of the event-object heap engine it replaced."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=programs())
    def test_same_log_as_reference(self, program):
        assert_same_as_reference(program)


@pytest.mark.slow
class TestReferenceEngineDeep:
    """The long lane: larger programs against the reference engine (CI's
    -m slow lane)."""

    @settings(max_examples=1500, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=programs(n_ops=30, n_behaviors=6, budget=150))
    def test_same_log_as_reference_deep(self, program):
        assert_same_as_reference(program)
