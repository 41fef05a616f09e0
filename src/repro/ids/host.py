"""Host-based sensing.

Section 2.1: "An IDS that monitors a host typically examines information
available on the host such as log files ... Nominal event-logging support
for host IDSs has been shown to consume three to five percent of the
monitored host's resources.  Logging compliant with Department of Defense
C2-level (Controlled Access Protection) security requires as much as twenty
percent of the host's processing power."

:class:`HostAgent` attaches to a :class:`~repro.net.node.Host`: it derives
log events from the packets the host receives (logins, connections), charges
the host CPU per its :class:`LoggingLevel`, detects host-local misuse
(failed-login storms), and forwards events to an analyzer like any sensor
(a *multi-host IDS* when several agents report to one analysis engine --
consuming network bandwidth for the reporting, which we account).
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

from ..errors import ConfigurationError
from ..net.node import Host
from ..net.packet import Packet
from ..sim.engine import Engine
from .alert import Detection, Severity
from .audit import (
    C2_EVENTS,
    KNOWN_CLUSTER_COMMANDS,
    NOMINAL_EVENTS,
    AuditEventType,
    AuditTrail,
    packet_to_events,
)
from .component import Component, Subprocess

__all__ = ["LoggingLevel", "HostAgent"]

#: bytes of log-report traffic per forwarded event (network overhead of a
#: multi-host IDS, section 2.1)
_EVENT_REPORT_BYTES = 220


class LoggingLevel(enum.Enum):
    """Audit depth; values are the host-CPU fractions from the paper."""

    NOMINAL = "nominal"   # 3-5 % of the host CPU
    C2 = "c2"             # ~20 % (DoD Controlled Access Protection)

    def __init__(self, value: str) -> None:
        # plain member attributes: the audit path reads the depth per packet
        self.cpu_fraction = 0.04 if value == "nominal" else 0.20
        #: audit event types recorded at this depth (C2 adds COMMAND
        #: records -- the visibility that catches the insider case)
        self.event_depth = C2_EVENTS if value == "c2" else NOMINAL_EVENTS


class HostAgent(Component):
    """A host-based IDS agent.

    Parameters
    ----------
    host:
        The monitored host; the agent registers its CPU load there and
        taps the host's delivered packets.
    logging_level:
        Audit depth, setting the CPU cost per the paper's figures.
    failed_login_threshold:
        Local detection: failed logins from one source within
        ``window_s`` that trigger a brute-force detection.
    """

    kind = Subprocess.SENSOR  # a host agent is a (host-scoped) sensor

    def __init__(
        self,
        engine: Engine,
        host: Host,
        logging_level: LoggingLevel = LoggingLevel.NOMINAL,
        failed_login_threshold: int = 10,
        window_s: float = 30.0,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name or f"agent@{host.name}")
        if failed_login_threshold < 1:
            raise ConfigurationError("failed_login_threshold must be >= 1")
        if window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        self.engine = engine
        self.host = host
        self.logging_level = logging_level
        self.failed_login_threshold = int(failed_login_threshold)
        self.window_s = float(window_s)

        host.cpu.add_load(self.name, logging_level.cpu_fraction)
        host.on_packet(self._observe)

        self.trail = AuditTrail()
        self._sinks: List[Callable[[Detection], None]] = []
        self._fail_windows: dict[int, list] = {}  # src -> [start, count, fired]
        self._rogue_seen: set = set()             # (subject, command) pairs
        self.log_events = 0
        self.report_bytes = 0
        self.detections_emitted = 0

    # ------------------------------------------------------------------
    def add_sink(self, sink: Callable[[Detection], None]) -> None:
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    def _observe(self, pkt: Packet) -> None:
        """Audit a packet delivered to the host; detect host-local misuse."""
        now = self.engine.now
        self.log_events += 1
        for event in packet_to_events(pkt, now, self.logging_level.event_depth):
            self.trail.log(event)
            if event.etype is AuditEventType.LOGIN_FAILURE:
                self._failed_login(pkt, now)
            elif event.etype is AuditEventType.LOGIN_SUCCESS:
                # success right after a failure storm from the same source:
                # the masquerade of section 2
                window = self._fail_windows.get(pkt.src.value)
                if window is not None and \
                        window[1] >= self.failed_login_threshold // 2:
                    self._emit(pkt, "masquerade-login", Severity.CRITICAL,
                               0.95, now)
            elif event.etype is AuditEventType.COMMAND:
                # only loggable at C2 depth; unknown commands from a trusted
                # peer are the section-3.3 insider signature
                if event.detail not in KNOWN_CLUSTER_COMMANDS:
                    key = (event.subject, event.detail)
                    if key not in self._rogue_seen:
                        self._rogue_seen.add(key)
                        self._emit(pkt, "rogue-command", Severity.CRITICAL,
                                   0.9, now)

    def _failed_login(self, pkt: Packet, now: float) -> None:
        window = self._fail_windows.get(pkt.src.value)
        if window is None or now - window[0] > self.window_s:
            window = [now, 0, False]
            self._fail_windows[pkt.src.value] = window
        window[1] += 1
        if window[1] >= self.failed_login_threshold and not window[2]:
            window[2] = True
            self._emit(pkt, "failed-login-storm", Severity.HIGH, 0.9, now)

    def _emit(self, pkt: Packet, category: str, severity: Severity,
              score: float, now: float) -> None:
        det = Detection(
            time=now, sensor=self.name, category=category,
            src=pkt.src, dst=pkt.dst, score=score, severity=severity,
            packet_pid=pkt.pid, truth_attack_id=pkt.attack_id)
        self.detections_emitted += 1
        self.report_bytes += _EVENT_REPORT_BYTES
        for sink in self._sinks:
            sink(det)
