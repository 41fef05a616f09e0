"""Generalized network IDS architecture (paper Figures 1 and 2)."""

from .alert import Alert, Detection, Notification, Severity
from .analyzer import Analyzer
from .anomaly import AnomalyEngine
from .component import Component, Subprocess, validate_wiring
from .console import ManagementConsole, ResponseLog
from .host import HostAgent, LoggingLevel
from .hybrid import HybridDetector
from .loadbalancer import (
    DynamicBalancer,
    HashBalancer,
    LoadBalancer,
    NoBalancer,
    StaticPlacementBalancer,
)
from .audit import (
    KNOWN_CLUSTER_COMMANDS,
    AuditEvent,
    AuditEventType,
    AuditTrail,
    packet_to_events,
)
from .monitor import Monitor
from .pipeline import IdsPipeline
from .policy import PolicyRule, ResponseAction, SecurityPolicy
from .response import Firewall, Honeypot, RouterInterface, SnmpTrapReceiver
from .sensor import (
    AnomalyDetector,
    FailureMode,
    Sensor,
    SignatureDetector,
)
from .signature import (
    HeaderRule,
    PayloadPatternRule,
    RuleMatch,
    SignatureEngine,
    SignatureRule,
    StreamPatternRule,
    ThresholdRule,
    default_ruleset,
)

__all__ = [
    "Alert",
    "Detection",
    "Notification",
    "Severity",
    "Analyzer",
    "AnomalyEngine",
    "Component",
    "Subprocess",
    "validate_wiring",
    "ManagementConsole",
    "ResponseLog",
    "HostAgent",
    "LoggingLevel",
    "HybridDetector",
    "LoadBalancer",
    "NoBalancer",
    "StaticPlacementBalancer",
    "HashBalancer",
    "DynamicBalancer",
    "Monitor",
    "IdsPipeline",
    "AuditEvent",
    "AuditEventType",
    "AuditTrail",
    "packet_to_events",
    "KNOWN_CLUSTER_COMMANDS",
    "PolicyRule",
    "ResponseAction",
    "SecurityPolicy",
    "Firewall",
    "Honeypot",
    "RouterInterface",
    "SnmpTrapReceiver",
    "AnomalyDetector",
    "FailureMode",
    "Sensor",
    "SignatureDetector",
    "HeaderRule",
    "PayloadPatternRule",
    "RuleMatch",
    "SignatureEngine",
    "SignatureRule",
    "StreamPatternRule",
    "ThresholdRule",
    "default_ruleset",
]
