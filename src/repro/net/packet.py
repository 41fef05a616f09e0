"""Packet model.

Packets carry the fields the IDS architecture actually inspects -- the IP
five-tuple, TCP flags and sequence numbers, and an application payload --
plus *ground-truth annotations* (``attack_id``) that never influence the
systems under test but let the evaluation harness compute the Figure-3
false-positive/false-negative ratios.

Payloads may be *materialized* (real ``bytes``, for IDSs that inspect
content) or *logical* (a declared length with no bytes allocated, for pure
load experiments).  ``wire_size`` accounts headers + payload either way.
"""

from __future__ import annotations

import enum
from itertools import count, repeat
from typing import Iterator, Optional

from ..errors import NetworkError
from .address import IPv4Address

__all__ = ["Protocol", "TcpFlags", "Packet", "ETHERNET_HEADER", "IP_HEADER"]

ETHERNET_HEADER = 14
IP_HEADER = 20
_PROTO_HEADER = {  # transport header sizes, in member order
    "TCP": 20,
    "UDP": 8,
    "ICMP": 8,
}


class Protocol(enum.Enum):
    """Transport protocols the testbed models.

    Each member carries ``proto_id``, its small-int index in definition
    order.  ``enum.Enum.__hash__`` is a python-level call (it hashes the
    member name), too slow for per-packet dispatch keys; packets carry the
    id in ``Packet.proto_id``.
    """

    TCP = "TCP"
    UDP = "UDP"
    ICMP = "ICMP"

    def __init__(self, value: str) -> None:
        self.proto_id = list(_PROTO_HEADER).index(value)
        #: transport header bytes
        self.header_size = _PROTO_HEADER[value]


#: Ethernet + IP + transport header bytes, indexed by ``proto_id``.
_WIRE_HEADER = tuple(ETHERNET_HEADER + IP_HEADER + proto.header_size
                     for proto in Protocol)


class TcpFlags(enum.IntFlag):
    """TCP control flags (subset relevant to session tracking)."""

    NONE = 0
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20


#: packet ids, assigned in build order
_pids = count(1)
_new = object.__new__


class Packet:
    """A single simulated network packet.

    Parameters
    ----------
    src, dst:
        Endpoint addresses.
    sport, dport:
        Transport ports (0 for ICMP).
    proto:
        :class:`Protocol` member.
    flags:
        TCP flags (ignored for non-TCP).
    seq, ack:
        TCP sequence / acknowledgment numbers.
    payload:
        Materialized application bytes, or ``None`` for a logical payload.
    payload_len:
        Logical payload length; defaults to ``len(payload)``.
    attack_id:
        Ground-truth label: identifier of the attack instance this packet
        belongs to, or ``None`` for benign traffic.  Invisible to IDS
        components by convention (enforced by the evaluation harness, which
        only passes packets -- never labels -- to products under test).
    """

    __slots__ = (
        "pid",
        "src",
        "dst",
        "sport",
        "dport",
        "proto",
        "proto_id",
        "flags",
        "flag_bits",
        "seq",
        "ack",
        "payload",
        "_payload_len",
        "attack_id",
        "_h256",
        "_tok",
    )

    def __init__(
        self,
        src: IPv4Address,
        dst: IPv4Address,
        sport: int = 0,
        dport: int = 0,
        proto: Protocol = Protocol.TCP,
        flags: TcpFlags = TcpFlags.NONE,
        seq: int = 0,
        ack: int = 0,
        payload: Optional[bytes] = None,
        payload_len: Optional[int] = None,
        attack_id: Optional[str] = None,
    ) -> None:
        if payload_len is None:
            payload_len = len(payload) if payload is not None else 0
        _fill(self, src, dst, sport, dport, proto, flags, seq, ack, payload,
              payload_len, attack_id)
        # checked as given, kept as plain ints
        self.sport = int(sport)
        self.dport = int(dport)
        self.seq = int(seq)
        self.ack = int(ack)
        self._payload_len = int(payload_len)

    @staticmethod
    def build_many(src, dst, sport, dport, proto, flags, seq, ack, payload,
                   payload_len, attack_id) -> Iterator["Packet"]:
        """Packets built lazily from one iterable per field, in
        ``Packet(...)`` order, with ``int`` ports, sequence numbers and
        ``payload_len``.

        Each packet takes the same validated build as ``Packet(...)``,
        without the keyword parsing and ``int`` normalization, when the
        iterator reaches it: cheap enough for a replay cursor to build a
        generated trace's packets at delivery.
        """
        return map(_fill, map(_new, repeat(Packet)), src, dst, sport, dport,
                   proto, flags, seq, ack, payload, payload_len, attack_id)

    # ------------------------------------------------------------------
    @property
    def payload_len(self) -> int:
        return self._payload_len

    @property
    def wire_size(self) -> int:
        """Total on-the-wire bytes: Ethernet + IP + transport + payload."""
        return _WIRE_HEADER[self.proto_id] + self._payload_len

    def has_flag(self, flag: TcpFlags) -> bool:
        # int() of a member is its plain value; ``int & IntFlag`` would
        # dispatch to the python-level ``IntFlag.__rand__``
        return bool(self.flag_bits & int(flag))

    def copy(self) -> "Packet":
        """Duplicate this packet (fresh pid), e.g. for port mirroring."""
        return Packet(
            src=self.src,
            dst=self.dst,
            sport=self.sport,
            dport=self.dport,
            proto=self.proto,
            flags=self.flags,
            seq=self.seq,
            ack=self.ack,
            payload=self.payload,
            payload_len=self._payload_len,
            attack_id=self.attack_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" attack={self.attack_id}" if self.attack_id else ""
        return (
            f"<Packet #{self.pid} {self.src}:{self.sport} -> {self.dst}:{self.dport}"
            f" {self.proto.value} len={self._payload_len}{label}>"
        )


def _fill(pkt: Packet, src, dst, sport, dport, proto, flags, seq, ack,
          payload, payload_len, attack_id) -> Packet:
    """Check and set every field of ``pkt``: the one build path of
    :class:`Packet`, behind both ``Packet(...)`` and
    :meth:`Packet.build_many`."""
    if not isinstance(src, IPv4Address) or not isinstance(dst, IPv4Address):
        raise NetworkError("src and dst must be IPv4Address instances")
    if not (0 <= sport <= 65535 and 0 <= dport <= 65535):
        raise NetworkError(f"port out of range: {sport}, {dport}")
    if payload_len < 0:
        raise NetworkError(f"negative payload_len {payload_len!r}")
    if payload is not None and payload_len < len(payload):
        raise NetworkError("payload_len smaller than materialized payload")
    pkt.pid = next(_pids)
    pkt.src = src
    pkt.dst = dst
    pkt.sport = sport
    pkt.dport = dport
    pkt.proto = proto
    pkt.proto_id = proto.proto_id
    pkt.flags = flags
    # plain-int mirror of ``flags``: IntFlag operations construct new
    # members per call, too slow for per-packet rule dispatch
    pkt.flag_bits = int(flags)
    pkt.seq = seq
    pkt.ack = ack
    pkt.payload = payload
    pkt._payload_len = payload_len
    pkt.attack_id = attack_id
    # Derived-feature memo slots (payload entropy over the first 256
    # bytes; extracted application token).  Pure functions of the
    # immutable payload, so they may be shared by every detector pass
    # over this packet; ``None``/``False`` mean "not computed yet"
    # (a computed token may legitimately be ``None``).
    pkt._h256 = None
    pkt._tok = False
    return pkt
