"""Analysis subprocess: detections -> classified, correlated alerts.

Section 2.2: "Analyzers determine the threat level of the raw data collected
by the sensors ... Primary analysis determines threat severity.  Secondary
analysis determines scope, intent, or frequency of the threat.  Accurate
analysis may require storage of a significant amount of historical data ...
Good analysis can correlate one attack with another."

The analyzer here performs:

* **primary analysis** -- deduplicate bursts of identical detections
  (same category + source within ``dedup_window_s``) into single alerts with
  a count, and promote severity when a burst is large;
* **secondary analysis** (optional, ``correlation=True``) -- link alerts
  from the same source across categories into a correlation id (one
  "campaign"), the *Threat Correlation* capability of Table 3's companion
  list;
* **storage accounting** -- bytes of historical context retained, feeding
  the *Data Storage* architectural metric.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..sim.engine import Engine
from .alert import Alert, Detection, Severity
from .component import Component, Subprocess

__all__ = ["Analyzer"]

#: storage cost (bytes) to retain one detection of history
_DETECTION_RECORD_BYTES = 96

#: burst promotion, indexed by severity: one step up, capped at CRITICAL
#: (a table lookup instead of an enum construction per promoted alert)
_PROMOTED = tuple(Severity(min(level + 1, Severity.CRITICAL))
                  for level in range(len(Severity)))


class Analyzer(Component):
    """Classify and correlate sensor detections into alerts.

    Parameters
    ----------
    engine:
        Simulation clock source.
    dedup_window_s:
        Detections with the same (category, src) inside this window fold
        into one alert.
    burst_promote:
        Detection count in one window at which severity is promoted one
        step ("frequency of the threat").
    correlation:
        Enable secondary analysis (cross-category campaign linking).
    analysis_delay_s:
        Processing latency between receiving a detection and emitting the
        alert; contributes to the *Timeliness* metric.
    history_limit:
        Maximum retained detection records (storage bound).
    """

    kind = Subprocess.ANALYZER

    #: bounded backpressure queue while stalled; detections beyond it are
    #: shed (with accounting) rather than buffered without limit
    STALL_QUEUE_LIMIT = 10_000

    def __init__(
        self,
        engine: Engine,
        name: str,
        dedup_window_s: float = 5.0,
        burst_promote: int = 20,
        correlation: bool = True,
        analysis_delay_s: float = 0.05,
        history_limit: int = 100_000,
    ) -> None:
        super().__init__(name)
        if dedup_window_s <= 0:
            raise ConfigurationError("dedup_window_s must be positive")
        if burst_promote < 2:
            raise ConfigurationError("burst_promote must be >= 2")
        if analysis_delay_s < 0:
            raise ConfigurationError("analysis_delay_s must be >= 0")
        self.engine = engine
        self.dedup_window_s = float(dedup_window_s)
        self.burst_promote = int(burst_promote)
        self.correlation = correlation
        self.analysis_delay_s = float(analysis_delay_s)
        self.history_limit = int(history_limit)

        self._sink: Optional[Callable[[Alert], None]] = None
        # (category, src) -> [window_start, count, emitted_alert?]
        self._windows: Dict[Tuple[str, int], list] = {}
        # src -> correlation id
        self._campaigns: Dict[int, str] = {}
        self._campaign_counter = 0

        self.detections_received = 0
        self.alerts_emitted = 0
        self.history_records = 0
        self.history_evictions = 0

        # graceful-degradation state (dormant until a fault injector uses
        # the hooks below; clean runs never enter these paths)
        self.up = True
        self.stalled = False
        self.injected_failures = 0
        self.dropped_down = 0
        self.stalled_detections = 0
        self.shed_detections = 0
        self._stall_queue: List[Detection] = []

    # ------------------------------------------------------------------
    def set_sink(self, sink: Callable[[Alert], None]) -> None:
        """Attach the monitor-facing delivery callback (M:1)."""
        self._sink = sink

    # ------------------------------------------------------------------
    def receive(self, det: Detection) -> None:
        """Ingest one sensor detection."""
        self.detections_received += 1
        if not self.up:
            self.dropped_down += 1
            return
        if self.stalled:
            if len(self._stall_queue) >= self.STALL_QUEUE_LIMIT:
                self.shed_detections += 1  # bounded queue: shed, accounted
                return
            self._stall_queue.append(det)
            self.stalled_detections += 1
            return
        self._analyze(det)

    def _analyze(self, det: Detection) -> None:
        self._store(det)
        key = (det.category, det.src.value)
        now = det.time
        window = self._windows.get(key)
        if window is None or now - window[0] > self.dedup_window_s:
            window = [now, 0, False]
            self._windows[key] = window
        window[1] += 1
        count = window[1]
        if window[2] and count < self.burst_promote:
            return  # suppressed duplicate inside the window
        severity = det.severity
        if count >= self.burst_promote:
            severity = _PROMOTED[det.severity]
            if window[2] and count > self.burst_promote:
                return  # promoted alert already sent for this window
        window[2] = True

        correlation_id = self._correlate(det) if self.correlation else None
        alert = Alert(
            time=now + self.analysis_delay_s,
            analyzer=self.name,
            category=det.category,
            src=det.src,
            dst=det.dst,
            severity=severity,
            confidence=det.score,
            detections=count,
            correlation_id=correlation_id,
            detail=det.detail,
            truth_attack_id=det.truth_attack_id,
        )
        self._emit(alert)

    def _correlate(self, det: Detection) -> str:
        cid = self._campaigns.get(det.src.value)
        if cid is None:
            self._campaign_counter += 1
            cid = f"{self.name}-campaign-{self._campaign_counter}"
            self._campaigns[det.src.value] = cid
        return cid

    def _store(self, det: Detection) -> None:
        if self.history_records >= self.history_limit:
            self.history_evictions += 1
            return
        self.history_records += 1

    @property
    def storage_bytes(self) -> int:
        """Historical context retained (Data Storage metric input)."""
        return self.history_records * _DETECTION_RECORD_BYTES

    def _emit(self, alert: Alert) -> None:
        if self._sink is None:
            return
        self.alerts_emitted += 1
        if self.analysis_delay_s > 0:
            self.engine.schedule_at(max(alert.time, self.engine.now),
                                    self._sink, alert)
        else:
            self._sink(alert)

    # ------------------------------------------------------------------
    # fault-injection hooks (driven by repro.sim.faults.FaultInjector)
    # ------------------------------------------------------------------
    def force_fail(self) -> None:
        """Injected crash: incoming detections are dropped, and any
        backlog queued by an overlapping stall is lost with it."""
        if not self.up:
            return
        self.up = False
        self.injected_failures += 1
        if self._stall_queue:
            self.dropped_down += len(self._stall_queue)
            self._stall_queue.clear()

    def force_restore(self) -> None:
        self.up = True

    def stall(self) -> None:
        """Injected backpressure: detections queue (bounded) instead of
        being analyzed, until :meth:`resume` drains them."""
        self.stalled = True

    def resume(self) -> None:
        """End a stall and analyze the queued backlog in arrival order.

        Queued detections keep their original timestamps, so their alerts
        carry the *detection* time but reach the monitor only now -- the
        timeliness cost of the stall is therefore measurable."""
        if not self.stalled:
            return
        self.stalled = False
        backlog, self._stall_queue = self._stall_queue, []
        for det in backlog:
            self._analyze(det)
