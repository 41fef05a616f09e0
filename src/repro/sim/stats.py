"""Online statistics accumulators used by the testbed.

:class:`TimeWeighted` averages a piecewise-constant signal (a consumer's
host CPU load); :class:`RateMeter` estimates event rates over a sliding
window (a sensor's overload drop rate).  Both are single-pass.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = ["TimeWeighted", "RateMeter"]


class TimeWeighted:
    """Time-weighted average of a piecewise-constant signal.

    Feed ``update(t, value)`` whenever the signal changes; the average over
    ``[t0, t_last]`` weights each value by how long it was held.
    """

    __slots__ = ("_t0", "_t_last", "_value", "_area")

    def __init__(self, t0: float = 0.0, value: float = 0.0) -> None:
        self._t0 = float(t0)
        self._t_last = float(t0)
        self._value = float(value)
        self._area = 0.0

    def update(self, t: float, value: float) -> None:
        if t < self._t_last:
            raise ValueError(f"time went backwards: {t} < {self._t_last}")
        self._area += self._value * (t - self._t_last)
        self._t_last = float(t)
        self._value = float(value)

    def average(self, until: Optional[float] = None) -> float:
        """Average over ``[t0, until]`` (defaults to the last update time)."""
        t_end = self._t_last if until is None else float(until)
        if t_end < self._t_last:
            raise ValueError("until precedes last update")
        area = self._area + self._value * (t_end - self._t_last)
        span = t_end - self._t0
        return area / span if span > 0 else self._value


class RateMeter:
    """Event rate estimation over a sliding history of fixed-width bins."""

    def __init__(self, bin_width: float = 1.0, history: int = 64) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = float(bin_width)
        self.history = int(history)
        self._bins: List[Tuple[int, int]] = []  # (bin index, count)

    def add(self, t: float, count: int = 1) -> None:
        idx = int(t // self.bin_width)
        if self._bins and self._bins[-1][0] == idx:
            self._bins[-1] = (idx, self._bins[-1][1] + count)
        else:
            if self._bins and idx < self._bins[-1][0]:
                raise ValueError("events must arrive in time order")
            self._bins.append((idx, count))
            if len(self._bins) > self.history:
                del self._bins[0]

    def rate(self, t: float, window: float) -> float:
        """Events per second over ``[t - window, t]``."""
        if window <= 0:
            raise ValueError("window must be positive")
        lo = (t - window) / self.bin_width
        total = sum(c for i, c in self._bins if i >= lo - 1e-12)
        return total / window
