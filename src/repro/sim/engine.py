"""Discrete-event simulation engine.

The engine is a classic event-heap kernel: callbacks are scheduled at
absolute simulated times and executed in non-decreasing time order.  Ties are
broken first by an explicit integer *priority* (lower runs first) and then by
insertion order, so runs are fully deterministic.

The engine is deliberately callback-based for speed -- the IDS testbed pushes
hundreds of thousands of packet events through it, most of them replayed
from a trace through :meth:`Engine.schedule_stream`.  Every event is one
``(time, priority, seq, fn, args)`` heap tuple, so every ordering decision
is a C-level tuple comparison (``seq`` is unique, so ``fn`` is never
compared).  A stream's entry carries its cursor as ``fn``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

import numpy as np

from ..errors import ScheduleError, SimulationError

__all__ = ["Engine"]

_heappush = heapq.heappush
_heappop = heapq.heappop
_heapreplace = heapq.heapreplace
_INF = float("inf")


def _check_stream_times(times: np.ndarray) -> None:
    """Raise unless every time is finite and none precedes the one before
    it; one pass over the whole column."""
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        i = int(bad[0])
        raise ScheduleError(
            f"record {i} has non-finite time {float(times[i])!r}")
    back = np.flatnonzero(times[1:] < times[:-1])
    if back.size:
        i = int(back[0])
        raise ScheduleError(
            f"record at t={float(times[i + 1])!r} precedes previous "
            f"t={float(times[i])!r}")


class _StreamCursor:
    """The ``fn`` of every heap entry of a :meth:`Engine.schedule_stream`
    replay; the stream has one such entry at a time.

    Record ``i`` is queued under sequence number ``base + i``, so the
    entry's ``seq`` is also the cursor's position in ``times``.
    ``payloads`` is an iterator over the payload column, advanced once per
    delivered record.
    """

    __slots__ = ("times", "payloads", "sink", "start_at", "t0", "speedup",
                 "priority", "base")

    def __init__(self, times, payloads, sink: Callable[..., Any],
                 start_at: float, speedup: float, priority: int,
                 base: int) -> None:
        self.times = times
        self.payloads = iter(payloads)
        self.sink = sink
        self.start_at = start_at
        self.t0 = times[0]
        self.speedup = speedup
        self.priority = priority
        self.base = base

    def entry(self, idx: int) -> tuple:
        """The heap entry that delivers record ``idx``."""
        return (self.start_at + (self.times[idx] - self.t0) / self.speedup,
                self.priority, self.base + idx, self, ())


class Engine:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock, in simulated seconds.

    Attributes
    ----------
    now:
        Current simulated time in seconds.  A plain attribute that only
        the engine writes, so per-packet components read the clock without
        a call.

    Examples
    --------
    >>> eng = Engine()
    >>> seen = []
    >>> eng.schedule(1.0, seen.append, "a")
    >>> eng.schedule(0.5, seen.append, "b")
    >>> eng.run()
    1.0
    >>> seen
    ['b', 'a']
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self._heap: list[tuple] = []
        self._seq = 0
        self._running = False
        self.events_executed = 0

    @property
    def pending(self) -> int:
        """Number of scheduled events (a stream counts as one)."""
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
    ) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise ScheduleError(f"negative or NaN delay {delay!r}")
        if not callable(fn):
            raise ScheduleError(f"callback {fn!r} is not callable")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap,
                  (float(self.now + delay), priority, seq, fn, args))

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if not time >= self.now:
            raise ScheduleError(
                f"cannot schedule at t={time!r}; clock already at {self.now!r}")
        if not callable(fn):
            raise ScheduleError(f"callback {fn!r} is not callable")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (float(time), priority, seq, fn, args))

    def schedule_stream(
        self,
        times,
        payloads,
        sink: Callable[..., Any],
        start_at: float = 0.0,
        speedup: float = 1.0,
        priority: int = 0,
    ) -> None:
        """Deliver a time-sorted record stream through one reusable cursor.

        The stream is two equal-length, non-empty columns: ``times``, finite
        and in non-decreasing order (checked over the whole column before
        anything is scheduled), and ``payloads``.  Record ``i`` is delivered
        as ``sink(payload_i)`` at ``start_at + (times[i] - times[0]) /
        speedup`` -- the exact expression per-record scheduling would use.
        Only one heap entry exists at a time instead of ``len(times)``.
        The cursor iterates ``payloads`` once and takes item ``i`` exactly
        when it delivers record ``i``, so a payload column may build its
        items on demand.

        Event ordering is *identical* to eager per-record ``schedule_at``
        calls: the cursor reserves the contiguous sequence-number block
        those calls would have consumed and queues record ``i`` under
        number ``base + i``, so ties against unrelated events (same time,
        same priority) break exactly the same way.  Inside :meth:`run`, a
        record whose entry would be the next one popped anyway is delivered
        directly, without a heap push and pop.
        """
        n = len(times)
        if n == 0:
            raise ScheduleError("schedule_stream needs at least one record")
        if len(payloads) != n:
            raise ScheduleError(
                f"{n} times for {len(payloads)} payloads")
        if not speedup > 0:
            raise ScheduleError(f"non-positive or NaN speedup {speedup!r}")
        if start_at != start_at:
            raise ScheduleError("NaN start_at")
        if not callable(sink):
            raise ScheduleError(f"sink {sink!r} is not callable")
        _check_stream_times(np.asarray(times, dtype=float))
        base = self._seq
        cursor = _StreamCursor(times, payloads, sink, start_at, speedup,
                               priority, base)
        first_at = cursor.entry(0)[0]
        if not first_at >= self.now:
            raise ScheduleError(
                f"cannot schedule at t={first_at!r}; "
                f"clock already at {self.now!r}")
        self._seq += n  # reserve the block eager scheduling would have used
        _heappush(self._heap, (float(first_at), priority, base, cursor, ()))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _deliver_stream(self, cursor: _StreamCursor, idx: int,
                        until: float) -> None:
        """Deliver record ``idx`` of the stream at the heap head, then each
        next record that is the heap head in turn and lies within
        ``until``.

        The next record's entry takes the delivered record's place before
        the sink runs -- stored straight into ``heap[0]`` when it still
        sorts first, which skips the push and pop -- so ``pending`` counts
        it, and a raising sink leaves the rest of the stream scheduled.
        """
        heap = self._heap
        next_payload = cursor.payloads.__next__
        sink = cursor.sink
        last = len(cursor.times) - 1
        while idx < last:
            idx += 1
            entry = cursor.entry(idx)
            size = len(heap)
            if ((size < 2 or entry < heap[1])
                    and (size < 3 or entry < heap[2])):
                heap[0] = entry
            else:
                _heapreplace(heap, entry)
            sink(next_payload())
            self.events_executed += 1
            t = entry[0]
            if heap[0] is not entry or t > until or t < self.now:
                return
            self.now = t
        _heappop(heap)
        sink(next_payload())
        self.events_executed += 1

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the heap drains or ``until`` is reached.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier, so back-to-back ``run`` calls
        compose like wall-clock intervals; no event after ``until`` runs.

        Returns the simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        self._running = True
        heap = self._heap
        limit = _INF if until is None else until
        try:
            while heap:
                t, _, seq, fn, args = heap[0]
                if t > limit:
                    break
                if t < self.now:
                    # only a stream whose records go back in time gets here
                    _heappop(heap)
                    raise SimulationError(
                        "event heap yielded an event in the past")
                self.now = t
                if fn.__class__ is _StreamCursor:
                    self._deliver_stream(fn, seq - fn.base, limit)
                else:
                    _heappop(heap)
                    fn(*args)
                    self.events_executed += 1
            if until is not None and self.now < until:
                self.now = float(until)
        finally:
            self._running = False
        return self.now
