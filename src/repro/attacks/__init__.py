"""Attack library with ground-truth labeling."""

from .base import Attack, AttackKind, AttackRecord
from .bruteforce import TelnetBruteForce
from .catalog import ATTACK_CLASSES, standard_attack_suite
from .dos import SynFlood, UdpFlood
from .exploits import (
    CGI_PROBE_PATHS,
    OVERFLOW_MARKER,
    BufferOverflowExploit,
    CgiProbe,
    NovelExploit,
)
from .insider import ROGUE_COMMANDS, TrustAbuse
from .scans import HostSweep, PortScan, SlowPortScan
from .tunnel import IcmpTunnel

__all__ = [
    "Attack",
    "AttackKind",
    "AttackRecord",
    "TelnetBruteForce",
    "ATTACK_CLASSES",
    "standard_attack_suite",
    "SynFlood",
    "UdpFlood",
    "BufferOverflowExploit",
    "CgiProbe",
    "NovelExploit",
    "OVERFLOW_MARKER",
    "CGI_PROBE_PATHS",
    "TrustAbuse",
    "ROGUE_COMMANDS",
    "HostSweep",
    "PortScan",
    "SlowPortScan",
    "IcmpTunnel",
]
