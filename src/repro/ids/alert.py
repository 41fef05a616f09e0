"""Alerts, detections and notifications.

The data that flows *up* the Figure-1 pipeline: sensors emit
:class:`Detection` events for suspicious traffic; analyzers classify them
into :class:`Alert` s with a threat severity; the monitor turns severe alerts
into operator :class:`Notification` s.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..net.address import IPv4Address

__all__ = ["Severity", "Detection", "Alert", "Notification"]


class Severity(enum.IntEnum):
    """Threat severity ladder; ordering is meaningful (CRITICAL > HIGH...)."""

    INFO = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3
    CRITICAL = 4


@dataclass(frozen=True)
class Detection:
    """Raw suspicious-traffic event produced by a sensor.

    ``category`` is the sensor's hypothesis ("syn-scan", "overflow-sig",
    "rate-anomaly", ...); ``score`` is engine confidence in [0, 1].
    """

    time: float
    sensor: str
    category: str
    src: IPv4Address
    dst: IPv4Address
    score: float
    severity: Severity = Severity.MEDIUM
    detail: str = ""
    #: pid of the triggering packet (diagnostic only)
    packet_pid: Optional[int] = None
    #: Ground-truth side channel for the evaluation harness: the attack id
    #: of the triggering packet, or ``None`` for benign traffic.  Detection
    #: logic, analyzers, monitors and policies never read this field -- it
    #: exists solely so the harness can compute the Figure-3 ratios.
    truth_attack_id: Optional[str] = None


@dataclass(frozen=True)
class Alert:
    """Analyzed threat event, as presented to the monitoring subprocess."""

    time: float
    analyzer: str
    category: str
    src: IPv4Address
    dst: IPv4Address
    severity: Severity
    confidence: float
    detections: int = 1
    correlation_id: Optional[str] = None
    detail: str = ""
    #: Ground-truth side channel (see :class:`Detection.truth_attack_id`).
    truth_attack_id: Optional[str] = None


@dataclass(frozen=True)
class Notification:
    """Operator notification issued by the monitor per security policy."""

    time: float
    channel: str
    alert: Alert
