"""Sensors: the traffic-facing subprocess.

"The sensors receive traffic from the load balancer (if any exists) and
separate out the suspicious traffic for further analysis" (section 2.2).

The processing model gives sensors real capacity limits so the Table-3
performance metrics are *observable*:

* Each packet costs ``header_ops`` plus, for deep-inspection sensors,
  ``per_byte_ops`` per materialized payload byte, plus ``parse_ops`` when the
  payload opens with a recognizable application-protocol prefix.  The last
  term is the mechanism behind lesson 1: random flood data never takes the
  parse path, so it under-loads a content-inspecting sensor and overstates
  its capacity.
* A serialization horizon (``busy_until``) models the single inspection
  pipeline; packets arriving when the backlog exceeds ``max_queue_delay_s``
  are dropped unseen (missed attacks under overload -> the zero-loss
  throughput experiment).
* Sustained drops beyond ``lethal_drop_rate`` pps crash the sensor -- the
  *Network Lethal Dose*.  What happens next is the *Error Reporting and
  Recovery* metric: :class:`FailureMode` reproduces the paper's low /
  average / high scoring anchors (hang silently / cold reboot / service
  restart with near-real-time error notification).
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Protocol as TypingProtocol, Tuple

from ..errors import ConfigurationError
from ..net.packet import Packet
from ..sim.engine import Engine
from ..sim.stats import RateMeter
from .alert import Detection, Severity
from .anomaly import AnomalyBaseline, AnomalyEngine
from .component import Component, Subprocess
from .signature import SignatureEngine

__all__ = [
    "FailureMode",
    "Detector",
    "SignatureDetector",
    "AnomalyDetector",
    "Sensor",
    "PROTOCOL_PREFIXES",
]

#: Application-payload prefixes that trigger the protocol-parse cost path.
PROTOCOL_PREFIXES: Tuple[bytes, ...] = (
    b"GET ", b"POST ", b"HEAD ", b"HTTP/", b"HELO", b"MAIL ", b"login:",
    b"\x53\x4d\x54\x52",  # "RTMS" cluster magic as packed little-endian

)


class FailureMode(enum.Enum):
    """Behaviour after a lethal overload (Error Reporting & Recovery
    anchors, section 3.2)."""

    HANG = "hang"        # low score: no notification, stays down forever
    REBOOT = "reboot"    # average: cold reboot, logged afterwards
    RESTART = "restart"  # high: service restart + near-real-time error alert


class Detector(TypingProtocol):
    """Detection engine protocol consumed by :class:`Sensor`."""

    def process(self, pkt: Packet, now: float) -> List[Tuple[str, Severity, float, str]]:
        """Return ``(category, severity, score, detail)`` hits."""
        ...


class SignatureDetector:
    """Adapter presenting a :class:`SignatureEngine` as a Detector."""

    def __init__(self, engine: Optional[SignatureEngine] = None,
                 sensitivity: float = 0.5,
                 payload_inspection: bool = True) -> None:
        if engine is None:
            from .signature import default_ruleset
            engine = SignatureEngine(default_ruleset(payload_inspection),
                                     sensitivity=sensitivity)
        self.engine = engine
        self.engine.sensitivity = sensitivity

    def process(self, pkt: Packet, now: float):
        return [(m.category, m.severity, m.score, m.detail)
                for m in self.engine.inspect(pkt, now)]


class AnomalyDetector:
    """Adapter presenting an :class:`AnomalyEngine` as a Detector."""

    def __init__(self, engine: Optional[AnomalyEngine] = None,
                 sensitivity: float = 0.5) -> None:
        if engine is None:
            engine = AnomalyEngine(sensitivity=sensitivity)
        self.engine = engine
        self.engine.sensitivity = sensitivity

    @property
    def window_s(self) -> float:
        """The one training parameter besides the packets."""
        return self.engine.window_s

    def train(self, pkt: Packet, now: float) -> None:
        self.engine.train(pkt, now)

    def freeze(self) -> AnomalyBaseline:
        return self.engine.freeze()

    def adopt(self, baseline: AnomalyBaseline) -> None:
        self.engine.adopt(baseline)

    def process(self, pkt: Packet, now: float):
        out = []
        for feature, score in self.engine.inspect(pkt, now):
            out.append((f"anomaly-{feature}", AnomalyEngine.severity_for(score),
                        score, ""))
        return out


class Sensor(Component):
    """A network sensor with finite inspection capacity.

    Parameters
    ----------
    engine:
        Simulation engine.
    detector:
        Detection engine (signature / anomaly / hybrid adapter).
    ops_rate:
        Inspection budget in abstract operations per second.
    header_ops / per_byte_ops / parse_ops:
        Cost model (see module docstring).  ``per_byte_ops=0`` models a
        header-only sensor.
    max_queue_delay_s:
        Backlog bound; packets beyond it are dropped unseen.
    lethal_drop_rate:
        Sustained drops (packets/s over 1 s) that crash the sensor; ``None``
        disables crashing.
    failure_mode:
        Post-crash behaviour.
    """

    kind = Subprocess.SENSOR

    def __init__(
        self,
        engine: Engine,
        name: str,
        detector: Detector,
        ops_rate: float = 40e6,
        header_ops: float = 500.0,
        per_byte_ops: float = 20.0,
        parse_ops: float = 4000.0,
        max_queue_delay_s: float = 0.05,
        lethal_drop_rate: Optional[float] = 2000.0,
        failure_mode: FailureMode = FailureMode.RESTART,
        reboot_time_s: float = 60.0,
        restart_time_s: float = 2.0,
    ) -> None:
        super().__init__(name)
        if ops_rate <= 0:
            raise ConfigurationError("ops_rate must be positive")
        if max_queue_delay_s <= 0:
            raise ConfigurationError("max_queue_delay_s must be positive")
        self.engine = engine
        self.detector = detector
        self.ops_rate = float(ops_rate)
        self.header_ops = float(header_ops)
        self.per_byte_ops = float(per_byte_ops)
        self.parse_ops = float(parse_ops)
        self.max_queue_delay_s = float(max_queue_delay_s)
        self.lethal_drop_rate = lethal_drop_rate
        self.failure_mode = failure_mode
        self.reboot_time_s = float(reboot_time_s)
        self.restart_time_s = float(restart_time_s)

        self._busy_until = 0.0
        self._sinks: List[Callable[[Detection], None]] = []
        self._error_sink: Optional[Callable[[str, float], None]] = None
        self._rr = 0  # round-robin cursor over sinks

        # state / counters
        self.up = True
        self.crashes = 0
        self.injected_failures = 0
        self._forced_down = False   # held down by a fault injector
        self._slowdown = 1.0        # inspection slowdown factor (1.0 = none)
        self.received = 0
        self.processed = 0
        self.dropped_overload = 0
        self.dropped_down = 0
        self.detections_emitted = 0
        self.busy_ops = 0.0
        self._drop_meter = RateMeter(bin_width=0.5, history=8)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def add_sink(self, sink: Callable[[Detection], None]) -> None:
        """Attach an analyzer-facing delivery callback."""
        self._sinks.append(sink)

    def set_error_sink(self, sink: Callable[[str, float], None]) -> None:
        """Channel for failure notifications (RESTART mode reports here)."""
        self._error_sink = sink

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def packet_cost_ops(self, pkt: Packet) -> float:
        ops = self.header_ops
        if self.per_byte_ops > 0.0:
            ops += self.per_byte_ops * pkt.payload_len
            if pkt.payload is not None and pkt.payload.startswith(PROTOCOL_PREFIXES):
                ops += self.parse_ops
        return ops

    @property
    def deep_inspection(self) -> bool:
        return self.per_byte_ops > 0.0

    # ------------------------------------------------------------------
    # ingest path
    # ------------------------------------------------------------------
    def ingest(self, pkt: Packet) -> None:
        """Offer one packet to the sensor (called by tap/load balancer)."""
        now = self.engine.now
        self.received += 1
        if not self.up:
            self.dropped_down += 1
            return
        backlog = self._busy_until - now
        if backlog > self.max_queue_delay_s:
            self.dropped_overload += 1
            self._drop_meter.add(now)
            if (self.lethal_drop_rate is not None
                    and self._drop_meter.rate(now, 1.0) >= self.lethal_drop_rate):
                self._crash(now)
            return
        cost_ops = self.packet_cost_ops(pkt)
        start = max(now, self._busy_until)
        # _slowdown is exactly 1.0 outside an injected overload window, so
        # the multiplication is bit-neutral for clean runs
        finish = start + cost_ops * self._slowdown / self.ops_rate
        self._busy_until = finish
        self.busy_ops += cost_ops
        self.engine.schedule_at(finish, self._complete, pkt)

    def _complete(self, pkt: Packet) -> None:
        if not self.up:
            self.dropped_down += 1
            return
        now = self.engine.now
        self.processed += 1
        hits = self.detector.process(pkt, now)
        for category, severity, score, detail in hits:
            det = Detection(
                time=now, sensor=self.name, category=category,
                src=pkt.src, dst=pkt.dst, score=score, severity=severity,
                detail=detail, packet_pid=pkt.pid,
                truth_attack_id=pkt.attack_id)
            self._deliver(det)

    def _deliver(self, det: Detection) -> None:
        if not self._sinks:
            return
        self.detections_emitted += 1
        # M:M sensors spread across analyzers round-robin
        sink = self._sinks[self._rr % len(self._sinks)]
        self._rr += 1
        sink(det)

    # ------------------------------------------------------------------
    # failure behaviour
    # ------------------------------------------------------------------
    def _crash(self, now: float) -> None:
        if not self.up:
            return
        self.up = False
        self.crashes += 1
        self._busy_until = now
        if self.failure_mode is FailureMode.HANG:
            return  # silent, permanent: the low-score anchor
        if self.failure_mode is FailureMode.REBOOT:
            self.engine.schedule(self.reboot_time_s, self._recover, "cold reboot")
            return
        # RESTART: near-real-time error report over the alert channel
        if self._error_sink is not None:
            self._error_sink(f"sensor {self.name} failed; restarting", now)
        self.engine.schedule(self.restart_time_s, self._recover, "service restart")

    def _recover(self, how: str) -> None:
        if self._forced_down:
            # an injected outage outlives natural recovery: the fault
            # injector alone decides when a forced-down sensor returns
            return
        self.up = True
        self._busy_until = self.engine.now
        self._drop_meter = RateMeter(bin_width=0.5, history=8)
        if self.failure_mode is FailureMode.REBOOT and self._error_sink is not None:
            # logged and reported only after the fact (the "average" anchor)
            self._error_sink(f"sensor {self.name} recovered after {how}",
                             self.engine.now)

    # ------------------------------------------------------------------
    # fault-injection hooks (driven by repro.sim.faults.FaultInjector)
    # ------------------------------------------------------------------
    def force_fail(self) -> None:
        """Injected crash: the sensor drops everything until
        :meth:`force_restore` (no :class:`FailureMode` self-recovery)."""
        if self._forced_down:
            return
        self._forced_down = True
        self.injected_failures += 1
        if self.up:
            self.up = False
            self._busy_until = self.engine.now

    def force_restore(self) -> None:
        """End an injected outage; the sensor comes back with a clean
        backlog and drop meter (cold restart semantics)."""
        if not self._forced_down:
            return
        self._forced_down = False
        self.up = True
        self._busy_until = self.engine.now
        self._drop_meter = RateMeter(bin_width=0.5, history=8)

    def set_slowdown(self, factor: float) -> None:
        """Injected overload: every inspection takes ``factor``x as long,
        so the backlog bound trips earlier and overload drops mount."""
        if factor < 1.0:
            raise ConfigurationError("slowdown factor must be >= 1")
        self._slowdown = float(factor)

    def clear_slowdown(self) -> None:
        self._slowdown = 1.0
