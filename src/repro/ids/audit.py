"""Host audit trails: the data host-based IDSs actually read.

Section 2.1: "An IDS that monitors a host typically examines information
available on the host such as log files."  This module turns traffic
delivered to a host into the audit events its operating system would log,
at a depth set by the audit level:

* **nominal** event logging (the 3-5 % CPU band) records logins and
  connections;
* **C2-level** audit (DoD Controlled Access Protection, the ~20 % band)
  additionally records application *commands* -- which is precisely the
  visibility needed to catch the section-3.3 insider case, where rogue
  commands ride an otherwise-normal trusted-host session.  The audit depth
  buys detection coverage with host CPU: the trade the scorecard prices.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import List, Optional

from ..net.packet import Packet, Protocol, TcpFlags

__all__ = [
    "AuditEventType",
    "AuditEvent",
    "AuditTrail",
    "packet_to_events",
    "KNOWN_CLUSTER_COMMANDS",
]

#: commands the cluster's operators legitimately issue (host allowlist)
KNOWN_CLUSTER_COMMANDS = frozenset({"sync", "rebalance", "status",
                                    "checkpoint"})

_CLUSTER_MAGIC = b"\x53\x4d\x54\x52"  # "RTMS" packed little-endian

_TCP_ID = Protocol.TCP.proto_id
_SYN_BITS = int(TcpFlags.SYN)
_SYN_ACK_BITS = int(TcpFlags.SYN | TcpFlags.ACK)


class AuditEventType(enum.Enum):
    CONNECTION = "connection"
    LOGIN_SUCCESS = "login-success"
    LOGIN_FAILURE = "login-failure"
    COMMAND = "command"


#: event types recorded at each audit depth
NOMINAL_EVENTS = frozenset({AuditEventType.CONNECTION,
                            AuditEventType.LOGIN_SUCCESS,
                            AuditEventType.LOGIN_FAILURE})
C2_EVENTS = frozenset(AuditEventType)


@dataclass(frozen=True)
class AuditEvent:
    """One host audit record."""

    time: float
    etype: AuditEventType
    subject: str          # source address (the acting principal's origin)
    detail: str
    #: ground-truth side channel (harness only; never read by detectors'
    #: decision logic beyond equality with None)
    truth_attack_id: Optional[str] = None


class AuditTrail:
    """Bounded in-memory audit log of one host."""

    def __init__(self, capacity: int = 50_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._events: List[AuditEvent] = []
        self.total_logged = 0
        self.overwritten = 0

    def log(self, event: AuditEvent) -> None:
        self.total_logged += 1
        if len(self._events) >= self.capacity:
            self._events.pop(0)
            self.overwritten += 1
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)


def _parse_cluster_command(payload: bytes) -> Optional[str]:
    """Extract the command name from a cluster control message, if any."""
    if len(payload) < 28 or not payload.startswith(_CLUSTER_MAGIC):
        return None
    (mtype,) = struct.unpack_from("<H", payload, 4)
    if mtype != 2:
        return None
    return payload[12:28].rstrip(b"\x00").decode("ascii", errors="replace")


def packet_to_events(pkt: Packet, now: float,
                     depth: frozenset = NOMINAL_EVENTS) -> List[AuditEvent]:
    """Derive the audit events a host would log for one delivered packet.

    ``depth`` selects the recorded event types (``NOMINAL_EVENTS`` or
    ``C2_EVENTS``).
    """
    found = []  # (event type, detail)
    # connection establishment (TCP SYN without ACK toward this host)
    if pkt.proto_id == _TCP_ID and pkt.flag_bits & _SYN_ACK_BITS == _SYN_BITS:
        found.append((AuditEventType.CONNECTION,
                      f"tcp connect to port {pkt.dport}"))

    payload = pkt.payload
    if payload:
        if b"Login incorrect" in payload:
            found.append((AuditEventType.LOGIN_FAILURE, "telnet login failure"))
        elif b"Last login" in payload:
            found.append((AuditEventType.LOGIN_SUCCESS, "telnet login success"))
        command = _parse_cluster_command(payload)
        if command is not None:
            found.append((AuditEventType.COMMAND, command))
    if not found:
        return []
    subject = str(pkt.src)
    return [AuditEvent(time=now, etype=etype, subject=subject, detail=detail,
                       truth_attack_id=pkt.attack_id)
            for etype, detail in found if etype in depth]
