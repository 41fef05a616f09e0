"""Discrete-event simulation engine.

The engine is a classic event-heap kernel: callbacks are scheduled at
absolute simulated times and executed in non-decreasing time order.  Ties are
broken first by an explicit integer *priority* (lower runs first) and then by
insertion order, so runs are fully deterministic.

The engine is deliberately callback-based for speed -- the IDS testbed pushes
hundreds of thousands of packet events through it, most of them replayed
from a trace through :meth:`Engine.schedule_stream`.  Heap entries are
``(time, priority, seq, handle)`` tuples, so every ordering decision is a
C-level tuple comparison (``seq`` is unique, so the handle itself is never
compared).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from ..errors import ScheduleError, SimulationError

__all__ = ["Engine", "EventHandle"]

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = float("inf")
#: A popped entry lies in the past only when a stream's records break
#: their non-decreasing time order.
_IN_THE_PAST = "event heap yielded an event in the past"


class EventHandle:
    """A cancellable reference to a scheduled callback.

    Cancellation is lazy: the heap entry stays in place and is skipped when
    popped, which keeps :meth:`Engine.cancel` O(1).
    """

    __slots__ = ("fn", "args", "cancelled")

    def __init__(self, fn: Optional[Callable[..., Any]], args: tuple) -> None:
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call repeatedly."""
        self.cancelled = True
        self.fn = None  # drop references early
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<{type(self).__name__} {state}>"


class _StreamCursor(EventHandle):
    """The one heap entry of a :meth:`Engine.schedule_stream` replay.

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
        super().__init__(None, ())
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
                self.priority, self.base + idx, self)


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
    >>> _ = eng.schedule(1.0, seen.append, "a")
    >>> _ = eng.schedule(0.5, seen.append, "b")
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
        self._stopped = False
        #: a stream's next entry while :meth:`run` delivers the stream's
        #: current record inline; it joins the heap unless it can be
        #: delivered inline too
        self._held: Optional[tuple] = None
        self.events_executed = 0

    @property
    def pending(self) -> int:
        """Number of heap entries, including lazily cancelled ones."""
        return len(self._heap) + (self._held is not None)

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
        if not delay >= 0:
            raise ScheduleError(f"negative or NaN delay {delay!r}")
        if not callable(fn):
            raise ScheduleError(f"callback {fn!r} is not callable")
        handle = EventHandle(fn, args)
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (float(self.now + delay), priority, seq, handle))
        return handle

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if not time >= self.now:
            raise ScheduleError(
                f"cannot schedule at t={time!r}; clock already at {self.now!r}")
        if not callable(fn):
            raise ScheduleError(f"callback {fn!r} is not callable")
        handle = EventHandle(fn, args)
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (float(time), priority, seq, handle))
        return handle

    @staticmethod
    def cancel(handle: EventHandle) -> None:
        """Cancel a previously scheduled event."""
        handle.cancel()

    def schedule_stream(
        self,
        times,
        payloads,
        sink: Callable[..., Any],
        start_at: float = 0.0,
        speedup: float = 1.0,
        priority: int = 0,
    ) -> EventHandle:
        """Deliver a time-sorted record stream through one reusable cursor.

        The stream is two equal-length, non-empty columns: ``times``, in
        non-decreasing order, and ``payloads``.  Record ``i`` is delivered
        as ``sink(payload_i)`` at ``start_at + (times[i] - times[0]) /
        speedup`` -- the exact expression per-record scheduling would use.
        Only one heap entry exists at a time instead of ``len(times)``.
        The cursor iterates ``payloads`` once and takes item ``i`` exactly
        when it delivers record ``i``, so a payload column may build its
        items on demand; a cancelled stream takes no further item.

        Event ordering is *identical* to eager per-record ``schedule_at``
        calls: the cursor reserves the contiguous sequence-number block
        those calls would have consumed and queues record ``i`` under
        number ``base + i``, so ties against unrelated events (same time,
        same priority) break exactly the same way.  Inside :meth:`run`, a
        record whose entry would be the next one popped anyway is delivered
        directly, without a heap push and pop.

        Cancelling the returned cursor stops the not-yet-delivered
        remainder of the stream.
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
        base = self._seq
        cursor = _StreamCursor(times, payloads, sink, start_at, speedup,
                               priority, base)
        first_at, _, _, _ = cursor.entry(0)
        if not first_at >= self.now:
            raise ScheduleError(
                f"cannot schedule at t={first_at!r}; "
                f"clock already at {self.now!r}")
        self._seq += n  # reserve the block eager scheduling would have used
        _heappush(self._heap, (float(first_at), priority, base, cursor))
        return cursor

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _pop_live(self) -> Optional[tuple]:
        """Pop entries until a live one; ``None`` when the heap drains."""
        heap = self._heap
        while heap:
            entry = _heappop(heap)
            if not entry[3].cancelled:
                return entry
        return None

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns ``True`` if an event ran, ``False`` if the heap was empty.
        """
        if self._held is not None:
            # called from a stream's sink inside run(): the stream's next
            # record joins the heap before anything is popped
            _heappush(self._heap, self._held)
            self._held = None
        entry = self._pop_live()
        if entry is None:
            return False
        if entry[0] < self.now:
            raise SimulationError(_IN_THE_PAST)
        self.now = entry[0]
        handle = entry[3]
        if handle.__class__ is _StreamCursor:
            idx = entry[2] - handle.base
            if idx + 1 < len(handle.times):
                _heappush(self._heap, handle.entry(idx + 1))
            handle.sink(next(handle.payloads))
        else:
            fn, args = handle.fn, handle.args
            handle.fn, handle.args = None, ()  # break cycles
            fn(*args)
        self.events_executed += 1
        return True

    def _deliver_stream(self, entry: tuple, until: float, budget: float) -> int:
        """Deliver a popped stream entry, then each next record of the
        stream that would be the next event :meth:`run` pops anyway: it
        sorts before ``heap[0]``, lies within ``until``, fits ``budget``
        and nothing called :meth:`stop`.  Returns how many records ran.

        While the sink runs, the stream's next entry is held in
        ``self._held``, where ``pending`` counts it, :meth:`step` pushes it
        and :meth:`run` pushes it if the sink raises -- the heap the
        per-record push would have left, without paying for the push.
        """
        heap = self._heap
        cursor = entry[3]
        next_payload = cursor.payloads.__next__
        sink = cursor.sink
        n = len(cursor.times)
        idx = entry[2] - cursor.base
        done = 0
        while True:
            payload = next_payload()
            idx += 1
            if idx == n:
                sink(payload)
                self.events_executed += 1
                return done + 1
            held = self._held = cursor.entry(idx)
            sink(payload)
            self.events_executed += 1
            done += 1
            if self._held is None:  # a nested step() took it
                return done
            self._held = None
            if (cursor.cancelled or self._stopped or done >= budget
                    or held[0] > until or held[0] < self.now
                    or (heap and heap[0] < held)):
                _heappush(heap, held)
                return done
            self.now = held[0]

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
        that runs: a lazily cancelled head is discarded only after the
        ``until`` check, and the next live entry is checked in turn.  A run
        that stops on ``max_events`` while a live event at or before
        ``until`` remains leaves the clock at its last event, so the next
        run picks up from there.

        Returns the simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        self._running = True
        self._stopped = False
        heap = self._heap
        limit = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        executed = 0
        counted_out = False
        try:
            while heap and not self._stopped:
                head = heap[0]
                if head[0] > limit:
                    break
                handle = head[3]
                if handle.cancelled:
                    _heappop(heap)
                    continue
                if executed >= budget:
                    counted_out = True
                    break
                entry = _heappop(heap)
                if entry[0] < self.now:
                    raise SimulationError(_IN_THE_PAST)
                self.now = entry[0]
                if handle.__class__ is _StreamCursor:
                    executed += self._deliver_stream(entry, limit,
                                                     budget - executed)
                else:
                    fn, args = handle.fn, handle.args
                    handle.fn, handle.args = None, ()  # break cycles
                    fn(*args)
                    self.events_executed += 1
                    executed += 1
            if (until is not None and not self._stopped and not counted_out
                    and self.now < until):
                self.now = float(until)
        finally:
            self._running = False
            if self._held is not None:
                # a sink raised: the rest of its stream stays scheduled
                _heappush(heap, self._held)
                self._held = None
        return self.now

    def stop(self) -> None:
        """Stop a run in progress after the current callback returns."""
        self._stopped = True
