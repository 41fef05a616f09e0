"""IDS assembly: wiring the five subprocesses into one deployment.

:class:`IdsPipeline` owns the components of Figure 1, wires them with the
standard data path (balancer -> sensors -> analyzers -> monitor [-> manager])
and validates the result against the Figure-2 cardinalities.

Sensing/analysis separation (the A2 ablation) is a wiring property:

* ``separated=True`` -- each detection travels to its analyzer over the
  management LAN: it arrives ``emit_latency_s`` later and costs
  ``detection_msg_bytes`` of network overhead ("separation adds network
  overhead", section 2.2), but analysis consumes none of the sensor budget.
* ``separated=False`` -- the combined 1:1 engine: analysis runs inside the
  sensor's processing budget (``analysis_ops`` per detection extend the
  sensor's inspection backlog), with zero added latency or network bytes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..net.packet import Packet
from ..net.trace import Trace
from ..sim.engine import Engine
from .alert import Detection
from .analyzer import Analyzer
from .anomaly import AnomalyBaseline
from .component import Component, validate_wiring
from .console import ManagementConsole
from .loadbalancer import LoadBalancer
from .monitor import Monitor
from .sensor import Sensor

__all__ = ["IdsPipeline"]


class IdsPipeline:
    """A fully wired network-IDS deployment.

    Parameters
    ----------
    engine:
        Simulation engine.
    sensors / analyzers / monitor:
        The essential subprocesses (section 2.2).
    balancer:
        Optional load-balancing subprocess (1c side); when absent, a single
        sensor receives the tap directly (multiple sensors *require* a
        balancer -- static placement counts as one).
    console:
        Optional management subprocess (1c side).
    separated / emit_latency_s / detection_msg_bytes / analysis_ops:
        Sensing/analysis separation model (see module docstring).
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        sensors: Sequence[Sensor],
        analyzers: Sequence[Analyzer],
        monitor: Monitor,
        balancer: Optional[LoadBalancer] = None,
        console: Optional[ManagementConsole] = None,
        separated: bool = False,
        emit_latency_s: float = 2e-3,
        detection_msg_bytes: int = 300,
        analysis_ops: float = 8000.0,
    ) -> None:
        if not sensors:
            raise ConfigurationError("pipeline needs at least one sensor")
        if not analyzers:
            raise ConfigurationError("pipeline needs at least one analyzer")
        if balancer is None and len(sensors) > 1:
            raise ConfigurationError(
                "multiple sensors require a load balancer (static placement "
                "counts as one; see loadbalancer.StaticPlacementBalancer)")
        self.engine = engine
        self.name = name
        self.sensors = list(sensors)
        self.analyzers = list(analyzers)
        self.monitor = monitor
        self.balancer = balancer
        self.console = console
        self.separated = separated
        self.emit_latency_s = float(emit_latency_s)
        self.detection_msg_bytes = int(detection_msg_bytes)
        self.analysis_ops = float(analysis_ops)

        self.network_overhead_bytes = 0
        self.ingested = 0
        self._wired = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def wire(self) -> "IdsPipeline":
        """Connect all components and validate cardinalities."""
        if self._wired:
            return self
        links: List[Tuple[Component, Component]] = []

        if self.balancer is not None:
            for sensor in self.balancer.sensors:
                links.append((self.balancer, sensor))

        # sensors -> analyzers: round-robin M:M (every sensor can reach every
        # analyzer; Sensor.add_sink round-robins between them)
        for sensor in self.sensors:
            for analyzer in self.analyzers:
                sensor.add_sink(self._make_sink(sensor, analyzer))
                links.append((sensor, analyzer))
            sensor.set_error_sink(self.monitor.report_error)

        for analyzer in self.analyzers:
            analyzer.set_sink(self.monitor.receive)
            links.append((analyzer, self.monitor))

        mgmt: List[Tuple[Component, Component]] = []
        if self.console is not None:
            links.append((self.monitor, self.console))
            self.monitor.set_responder(self.console.respond)
            for comp in (*self.sensors, *self.analyzers, self.monitor,
                         *([self.balancer] if self.balancer else [])):
                mgmt.append((self.console, comp))

        components = [*self.sensors, *self.analyzers, self.monitor]
        if self.balancer is not None:
            components.append(self.balancer)
        if self.console is not None:
            components.append(self.console)
        validate_wiring(components, links, mgmt)
        self._wired = True
        return self

    def _make_sink(self, sensor: Sensor, analyzer: Analyzer) -> Callable[[Detection], None]:
        if self.separated:
            def sink(det: Detection) -> None:
                self.network_overhead_bytes += self.detection_msg_bytes
                self.engine.schedule(self.emit_latency_s, analyzer.receive, det)
            return sink

        def sink(det: Detection) -> None:
            # combined engine: analysis extends the sensor's busy horizon
            now = self.engine.now
            sensor._busy_until = max(now, sensor._busy_until) + (
                self.analysis_ops / sensor.ops_rate)
            sensor.busy_ops += self.analysis_ops
            analyzer.receive(det)
        return sink

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def ingest(self, pkt: Packet) -> None:
        """Entry point for tapped/mirrored traffic."""
        if not self._wired:
            raise ConfigurationError("pipeline not wired; call wire() first")
        self.ingested += 1
        if self.balancer is not None:
            self.balancer.ingest(pkt)
        else:
            self.sensors[0].ingest(pkt)

    # ------------------------------------------------------------------
    # training passthrough (anomaly-capable detectors)
    # ------------------------------------------------------------------
    @property
    def trainable(self) -> bool:
        """Whether any sensor's detector learns a baseline."""
        return any(hasattr(s.detector, "train") for s in self.sensors)

    def train_on(self, trace: Trace,
                 baselines: Optional[Dict[float, AnomalyBaseline]] = None,
                 ) -> int:
        """Learn every trainable detector's baseline from a benign trace
        and freeze the detector; returns how many detectors trained.

        Training reads the packets and ``window_s``, never sensitivity, so
        detectors with one ``window_s`` learn equal baselines from one
        trace: the first trains and freezes, the rest adopt its baseline.
        ``baselines`` maps ``window_s`` to a baseline already learned from
        ``trace`` and gains each one learned here; an evaluation keeps one
        such map per warmup for the life of its retention scope."""
        if baselines is None:
            baselines = {}
        trained = 0
        for sensor in self.sensors:
            det = sensor.detector
            if not hasattr(det, "train"):
                continue
            baseline = baselines.get(det.window_s)
            if baseline is None:
                for t, pkt in trace:
                    det.train(pkt, t)
                baselines[det.window_s] = det.freeze()
                trained += 1
            else:
                det.adopt(baseline)
        return trained

    def freeze(self) -> None:
        """Freeze every detector that has no baseline yet on what it
        learned (per-source envelopes of 1 when it saw nothing)."""
        for sensor in self.sensors:
            if hasattr(sensor.detector, "freeze"):
                sensor.detector.freeze()

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def packets_dropped(self) -> int:
        """Packets lost anywhere in the pipeline: sensor overload and
        outage drops, plus the balancer's capacity drops, outage drops and
        failover sheds (no live sensor to take the packet)."""
        dropped = sum(s.dropped_overload + s.dropped_down for s in self.sensors)
        balancer = self.balancer
        if balancer is not None:
            dropped += (balancer.dropped + balancer.dropped_down
                        + balancer.shed_no_sensor)
        return dropped

    @property
    def packets_processed(self) -> int:
        return sum(s.processed for s in self.sensors)

    @property
    def crash_count(self) -> int:
        return sum(s.crashes for s in self.sensors)
