"""Host CPU resource accounting.

The paper's real-time focus makes *resource overhead* a first-class metric:
host-based sensing consumes 3-5 % of a monitored host's CPU for nominal event
logging and up to ~20 % for DoD C2-level audit (section 2.1), and the
Operational Performance Impact metric (Table 3) is "expressed as a percentage
of processing power".

:class:`HostCpu` models a host's processing capacity in abstract
operations/second.  Consumers register a *continuous load* (a fraction of
capacity, e.g. an audit daemon), which is tracked time-weighted per consumer
so experiments can report the average impact of an IDS component on its
host.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ConfigurationError
from .engine import Engine
from .stats import TimeWeighted

__all__ = ["HostCpu"]


class HostCpu:
    """Time-weighted CPU load model for one host.

    Parameters
    ----------
    engine:
        Simulation engine supplying the clock.
    capacity_ops:
        Abstract operations per second at 100 % utilization.
    name:
        Host label used in reports.
    """

    def __init__(self, engine: Engine, capacity_ops: float = 1e9, name: str = "host") -> None:
        if capacity_ops <= 0:
            raise ConfigurationError("capacity_ops must be positive")
        self.engine = engine
        self.capacity_ops = float(capacity_ops)
        self.name = name
        #: per consumer: [summed load fraction, its time-weighted meter]
        self._consumers: Dict[str, List] = {}

    def add_load(self, name: str, fraction: float) -> None:
        """Register a continuous load of ``fraction`` of this CPU for
        consumer ``name`` (loads of one consumer add up, uncapped)."""
        if fraction < 0:
            raise ConfigurationError(f"negative load fraction {fraction!r}")
        now = self.engine.now
        entry = self._consumers.get(name)
        if entry is None:
            entry = self._consumers[name] = [0.0, TimeWeighted(t0=now)]
        entry[0] += float(fraction)
        entry[1].update(now, entry[0])

    def consumer_average(self, consumer: str, until: Optional[float] = None) -> float:
        """Time-weighted average fraction attributed to one consumer."""
        entry = self._consumers.get(consumer)
        if entry is None:
            return 0.0
        entry[1].update(self.engine.now, entry[0])
        return entry[1].average(until)

    def __repr__(self) -> str:  # pragma: no cover
        return f"HostCpu({self.name!r}, consumers={sorted(self._consumers)})"
