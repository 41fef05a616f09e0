"""The event-object heap engine, as a differential oracle.

This is the discrete-event engine as it stood before heap entries became
``(time, priority, seq, handle)`` tuples and replay gained an inline
cursor: every heap entry is an :class:`EventHandle` compared by a
python-level ``__lt__``, and a stream cursor pushes and pops itself once
per record.  ``tests/sim/test_engine.py`` runs random programs on it and on
:class:`repro.sim.engine.Engine` and requires the same execution log and
the same ``now``, ``events_executed`` and ``pending`` after every call.
Besides the module docstring and the import of the error types, only
:meth:`Engine.run` and :meth:`Engine.schedule_stream` differ from the
original, by three deliberate contract fixes made together with the
production engine: ``until`` bounds every event that runs (a cancelled
head no longer lets the live event behind it run past ``until``), a run
that stops on ``max_events`` while a live event at or before ``until``
remains leaves the clock at its last event instead of moving it to
``until``, and a stream whose times are not all finite and non-decreasing
is refused before anything is scheduled, with the production engine's
message.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

from repro.errors import ScheduleError, SimulationError

__all__ = ["Engine", "EventHandle"]


def _noop() -> None:  # placeholder callback while a stream cursor is built
    return None


class EventHandle:
    """A cancellable reference to a scheduled callback.

    Cancellation is lazy: the heap entry stays in place and is skipped when
    popped, which keeps :meth:`Engine.cancel` O(1).
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call repeatedly."""
        self.cancelled = True
        self.fn = None  # drop references early
        self.args = ()

    def __lt__(self, other: "EventHandle") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} prio={self.priority} {state}>"


class Engine:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock, in simulated seconds.

    Examples
    --------
    >>> eng = Engine()
    >>> seen = []
    >>> _ = eng.schedule(1.0, seen.append, "a")
    >>> _ = eng.schedule(0.5, seen.append, "b")
    >>> eng.run()
    1.0
    >>> seen
    ['b', 'a']
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[EventHandle] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self.events_executed = 0

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of heap entries, including lazily cancelled ones."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ScheduleError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, fn, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise ScheduleError(
                f"cannot schedule at t={time!r}; clock already at {self._now!r}"
            )
        if not callable(fn):
            raise ScheduleError(f"callback {fn!r} is not callable")
        handle = EventHandle(float(time), priority, self._seq, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, handle)
        return handle

    @staticmethod
    def cancel(handle: EventHandle) -> None:
        """Cancel a previously scheduled event."""
        handle.cancel()

    def schedule_stream(
        self,
        records,
        sink: Callable[..., Any],
        start_at: float = 0.0,
        speedup: float = 1.0,
        priority: int = 0,
    ) -> EventHandle:
        """Deliver a time-sorted record stream through one reusable cursor.

        ``records`` is a non-empty sequence of ``(time, payload)`` pairs in
        non-decreasing time order; record ``i`` is delivered as
        ``sink(payload_i)`` at ``start_at + (time_i - time_0) / speedup`` --
        the exact expression per-record scheduling would use.  Only one heap
        entry exists at a time instead of ``len(records)``.

        Event ordering is *identical* to eager per-record ``schedule_at``
        calls: the cursor reserves the contiguous sequence-number block
        those calls would have consumed and stamps record ``i``'s number
        before each re-push, so ties against unrelated events (same time,
        same priority) break exactly the same way.

        Cancelling the returned cursor stops the not-yet-delivered
        remainder of the stream.
        """
        n = len(records)
        if n == 0:
            raise ScheduleError("schedule_stream needs at least one record")
        if speedup <= 0:
            raise ScheduleError(f"non-positive speedup {speedup!r}")
        if not callable(sink):
            raise ScheduleError(f"sink {sink!r} is not callable")
        for i, (t, _) in enumerate(records):
            if not math.isfinite(t):
                raise ScheduleError(
                    f"record {i} has non-finite time {float(t)!r}")
        for i in range(n - 1):
            if records[i + 1][0] < records[i][0]:
                raise ScheduleError(
                    f"record at t={float(records[i + 1][0])!r} precedes "
                    f"previous t={float(records[i][0])!r}")
        t0 = records[0][0]
        first_at = start_at + (records[0][0] - t0) / speedup
        if first_at < self._now:
            raise ScheduleError(
                f"cannot schedule at t={first_at!r}; "
                f"clock already at {self._now!r}")
        base = self._seq
        self._seq += n  # reserve the block eager scheduling would have used
        cursor = EventHandle(float(first_at), priority, base, _noop, ())
        idx = 0

        def fire() -> None:
            nonlocal idx
            record = records[idx]
            idx += 1
            if idx < n and not cursor.cancelled:
                cursor.time = start_at + (records[idx][0] - t0) / speedup
                cursor.seq = base + idx
                cursor.fn = fire
                cursor.args = ()
                heapq.heappush(self._heap, cursor)
            sink(record[1])

        cursor.fn = fire
        heapq.heappush(self._heap, cursor)
        return cursor

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single next pending event.

        Returns ``True`` if an event ran, ``False`` if the heap was empty.
        """
        while self._heap:
            handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            if handle.time < self._now:  # pragma: no cover - internal guard
                raise SimulationError("event heap yielded an event in the past")
            self._now = handle.time
            fn, args = handle.fn, handle.args
            handle.fn, handle.args = None, ()  # break cycles
            assert fn is not None
            fn(*args)
            self.events_executed += 1
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have executed.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier, so back-to-back ``run`` calls
        compose like wall-clock intervals.  ``until`` bounds every event
        that runs, and a run that stops on ``max_events`` while a live event
        at or before ``until`` remains leaves the clock at its last event.

        Returns the simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        counted_out = False
        try:
            while self._heap and not self._stopped:
                head = self._heap[0]
                if until is not None and head.time > until:
                    break
                if head.cancelled:
                    heapq.heappop(self._heap)
                    continue
                if max_events is not None and executed >= max_events:
                    counted_out = True
                    break
                if self.step():
                    executed += 1
            if (until is not None and not self._stopped and not counted_out
                    and self._now < until):
                self._now = float(until)
        finally:
            self._running = False
        return self._now

    def stop(self) -> None:
        """Stop a run in progress after the current callback returns."""
        self._stopped = True
