"""Flow identification.

A *flow* is the bidirectional conversation identified by the canonicalized
five-tuple.  :class:`FlowKey` keys the ground-truth count of benign
transactions.  The session-aware load balancers (which must keep a TCP
session on one sensor, section 2.2) key flows by the same fields as a
plain int tuple, built per packet without enum hashing.
"""

from __future__ import annotations

from typing import NamedTuple

from .address import IPv4Address
from .packet import Packet, Protocol

__all__ = ["FlowKey"]


class FlowKey(NamedTuple):
    """Canonical bidirectional flow key: endpoints sorted so that both
    directions of a conversation map to the same key."""

    addr_lo: IPv4Address
    port_lo: int
    addr_hi: IPv4Address
    port_hi: int
    proto: Protocol

    @classmethod
    def of(cls, pkt: Packet) -> "FlowKey":
        a = (pkt.src.value, pkt.sport)
        b = (pkt.dst.value, pkt.dport)
        if a <= b:
            return cls(pkt.src, pkt.sport, pkt.dst, pkt.dport, pkt.proto)
        return cls(pkt.dst, pkt.dport, pkt.src, pkt.sport, pkt.proto)
