"""Load-balancing subprocess (optional; 1c:M toward sensors).

Section 2.2: "Load balancing allows the IDS to efficiently utilize the
processing power of the distributed sensors for scalability ... Load
balancers typically must be aware of TCP sessions so they can consistently
send connection-oriented traffic to the appropriate sensor.  If an IDS has
no load-balancing component, the load may be statically spread out by
placing sensors in separate subnets.  Individual, statically placed sensors
may overload or starve."

Strategies (the A1 ablation):

* :class:`NoBalancer` -- every sensor sees everything (or: single sensor).
* :class:`StaticPlacementBalancer` -- partition by destination subnet, the
  "static methods such as placement" average-score anchor; uneven traffic
  overloads some sensors and starves others.
* :class:`HashBalancer` -- flow-hash spreading; session-consistent by
  construction, balanced for many flows.
* :class:`DynamicBalancer` -- least-backlog assignment with per-flow
  stickiness, the "intelligent, dynamic load balancing" high-score anchor.

All balancers model their own forwarding capacity and (if in-line) induced
latency, and count per-sensor assignment so the harness can score balance
evenness and scalability.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from ..net.address import Subnet
from ..net.packet import Packet
from ..sim.engine import Engine
from .component import Component, Subprocess
from .sensor import Sensor

__all__ = [
    "LoadBalancer",
    "NoBalancer",
    "StaticPlacementBalancer",
    "HashBalancer",
    "DynamicBalancer",
]


def _flow_ints(pkt: Packet) -> tuple:
    """The canonical bidirectional five-tuple as ints: the fields of
    :meth:`repro.net.flow.FlowKey.of` with addresses by value and the
    protocol by ``proto_id``.  Both directions of a flow map to the same
    tuple, and it hashes the same in every process (no salted ``str``)."""
    src, sport = pkt.src.value, pkt.sport
    dst, dport = pkt.dst.value, pkt.dport
    if src < dst or (src == dst and sport <= dport):
        return (src, sport, dst, dport, pkt.proto_id)
    return (dst, dport, src, sport, pkt.proto_id)


class LoadBalancer(Component):
    """Base class: receives packets, forwards each to one sensor.

    Parameters
    ----------
    capacity_pps:
        Forwarding limit; packets beyond it in a 1-second window are
        dropped (the balancer itself can bottleneck -- its *System
        Throughput* and *Scalability* metrics).
    induced_latency_s:
        Added delay per packet when the balancer is in-line; 0 models a
        mirrored (passive) deployment.
    """

    kind = Subprocess.LOAD_BALANCER
    strategy = "abstract"

    def __init__(
        self,
        engine: Engine,
        name: str,
        sensors: Sequence[Sensor],
        capacity_pps: Optional[float] = None,
        induced_latency_s: float = 0.0,
    ) -> None:
        super().__init__(name)
        if not sensors:
            raise ConfigurationError("load balancer needs at least one sensor")
        if induced_latency_s < 0:
            raise ConfigurationError("induced_latency_s must be >= 0")
        self.engine = engine
        self.sensors = list(sensors)
        self.capacity_pps = capacity_pps
        self.induced_latency_s = float(induced_latency_s)
        self.received = 0
        self.forwarded = 0
        self.dropped = 0
        self.per_sensor_count: Dict[str, int] = {s.name: 0 for s in self.sensors}
        # capacity window, anchored at the first counted packet; advances
        # in whole-window steps from that anchor (never snapped to the
        # integer clock, which would let a boundary-straddling burst pass
        # up to twice the capacity)
        self._window_start: Optional[float] = None
        self._window_count = 0
        # graceful-degradation state (dormant until a fault injector arms
        # it; clean runs never enter these paths)
        self.up = True
        self.failover = False
        self.failovers = 0
        self.recoveries = 0
        self.dropped_down = 0
        self.shed_no_sensor = 0

    # ------------------------------------------------------------------
    def ingest(self, pkt: Packet) -> None:
        self.received += 1
        if not self.up:
            self.dropped_down += 1
            return
        now = self.engine.now
        if self.capacity_pps is not None:
            if self._window_start is None:
                self._window_start = now
            elif now - self._window_start >= 1.0:
                # advance by whole windows so the phase stays anchored to
                # the traffic; the boundary packet counts in the window it
                # actually falls in
                self._window_start += float(int(now - self._window_start))
                self._window_count = 0
            self._window_count += 1
            if self._window_count > self.capacity_pps:
                self.dropped += 1
                return
        sensor = self.select(pkt)
        if self.failover and not sensor.up:
            sensor = self._failover_target(sensor)
            if sensor is None:
                self.shed_no_sensor += 1
                return
            self.failovers += 1
        self.per_sensor_count[sensor.name] += 1
        self.forwarded += 1
        if self.induced_latency_s > 0.0:
            self.engine.schedule(self.induced_latency_s, sensor.ingest, pkt)
        else:
            sensor.ingest(pkt)

    def select(self, pkt: Packet) -> Sensor:
        raise NotImplementedError

    def _failover_target(self, selected: Sensor) -> Optional[Sensor]:
        """Next live sensor in ring order after the down selection, or
        None when every sensor is down (the packet is shed, counted)."""
        start = self.sensors.index(selected)
        for offset in range(1, len(self.sensors)):
            candidate = self.sensors[(start + offset) % len(self.sensors)]
            if candidate.up:
                return candidate
        return None

    # ------------------------------------------------------------------
    # degradation hooks (driven by repro.sim.faults.FaultInjector)
    # ------------------------------------------------------------------
    def force_fail(self) -> None:
        """Injected balancer outage: every offered packet is dropped."""
        self.up = False

    def force_restore(self) -> None:
        self.up = True

    def notify_recovered(self, sensor: Sensor) -> None:
        """Recovery re-registration: a restored sensor rejoins rotation.

        The base rotation already consults ``sensor.up`` on failover, so
        the hook only accounts the re-registration; stateful balancers
        override to refresh their assignment state as well.
        """
        self.recoveries += 1

    # ------------------------------------------------------------------
    def balance_evenness(self) -> float:
        """Jain's fairness index of the per-sensor assignment counts
        (1.0 = perfectly even, 1/n = all to one sensor).

        Every configured sensor participates, so a starved sensor drags
        the index down even if it never appeared in the counters; a
        drop-only workload (packets received, none forwarded) scores the
        all-to-no-sensor worst case 1/n rather than a vacuous 1.0.
        """
        counts = [self.per_sensor_count.get(s.name, 0) for s in self.sensors]
        total = sum(counts)
        if total == 0:
            return 1.0 if self.received == 0 else 1.0 / len(counts)
        sq = sum(c * c for c in counts)
        return (total * total) / (len(counts) * sq)


class NoBalancer(LoadBalancer):
    """Degenerate balancer: everything to the single sensor.

    (Multiple sensors without balancing is modelled by
    :class:`StaticPlacementBalancer`, which is what "no load balancing"
    means operationally in a multi-sensor deployment.)
    """

    strategy = "none"

    def __init__(self, engine: Engine, name: str, sensors: Sequence[Sensor],
                 **kwargs) -> None:
        super().__init__(engine, name, sensors, **kwargs)
        if len(self.sensors) != 1:
            raise ConfigurationError("NoBalancer supports exactly one sensor")

    def select(self, pkt: Packet) -> Sensor:
        return self.sensors[0]


class StaticPlacementBalancer(LoadBalancer):
    """Partition traffic by destination subnet (sensor placement).

    Packets whose destination matches ``subnets[i]`` go to ``sensors[i]``;
    non-matching traffic falls through to the last sensor.  Evenness is
    entirely at the mercy of the traffic matrix.
    """

    strategy = "static-placement"

    def __init__(
        self,
        engine: Engine,
        name: str,
        sensors: Sequence[Sensor],
        subnets: Sequence[str],
        **kwargs,
    ) -> None:
        super().__init__(engine, name, sensors, **kwargs)
        if len(subnets) != len(self.sensors):
            raise ConfigurationError("need one subnet per sensor")
        self.subnets = [Subnet(s) for s in subnets]

    def select(self, pkt: Packet) -> Sensor:
        for subnet, sensor in zip(self.subnets, self.sensors):
            if pkt.dst in subnet:
                return sensor
        return self.sensors[-1]


class HashBalancer(LoadBalancer):
    """Flow-hash spreading: canonical five-tuple hash modulo sensor count.

    Both directions of a flow hash identically (:func:`_flow_ints` is
    bidirectional), so TCP sessions stay on one sensor.  The hashed tuple
    holds only ints, so assignment is the same in every process.
    """

    strategy = "flow-hash"

    def select(self, pkt: Packet) -> Sensor:
        return self.sensors[hash(_flow_ints(pkt)) % len(self.sensors)]


class DynamicBalancer(LoadBalancer):
    """Least-backlog assignment with per-flow stickiness.

    New flows go to the sensor with the smallest inspection backlog;
    existing flows stay where they are (TCP-session awareness).  The sticky
    table is bounded; evicted flows simply re-balance.
    """

    strategy = "dynamic"

    def __init__(self, engine: Engine, name: str, sensors: Sequence[Sensor],
                 max_flows: int = 100_000, **kwargs) -> None:
        super().__init__(engine, name, sensors, **kwargs)
        if max_flows <= 0:
            raise ConfigurationError("max_flows must be positive")
        self.max_flows = int(max_flows)
        self._assignment: Dict[tuple, Sensor] = {}  # by _flow_ints()

    def notify_recovered(self, sensor: Sensor) -> None:
        """A recovered sensor rejoins least-backlog selection immediately:
        the sticky table is dropped wholesale (the same cheap eviction used
        at ``max_flows``) so new selections can use it again."""
        super().notify_recovered(sensor)
        self._assignment.clear()

    def select(self, pkt: Packet) -> Sensor:
        key = _flow_ints(pkt)
        sensor = self._assignment.get(key)
        if sensor is not None and sensor.up:
            return sensor
        now = self.engine.now
        # Least backlog first, quantized into 10 ms buckets: once sensors
        # saturate, their backlogs all pin near the queue bound and stop
        # reflecting true load, so within a bucket the least-assigned sensor
        # wins and saturation still spreads evenly.  Down sensors sort last;
        # a full tie keeps the first sensor in list order.
        counts = self.per_sensor_count
        sensor = best = None
        for s in self.sensors:
            rank = (not s.up, int(max(s._busy_until - now, 0.0) / 0.01),
                    counts[s.name])
            if best is None or rank < best:
                sensor, best = s, rank
        if len(self._assignment) >= self.max_flows:
            self._assignment.clear()  # cheap wholesale eviction
        self._assignment[key] = sensor
        return sensor
