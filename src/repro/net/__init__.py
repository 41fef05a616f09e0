"""Network substrate: addresses, packets, flow keys, TCP sessions, links,
nodes, traces."""

from .address import IPv4Address, Subnet
from .flow import FlowKey
from .link import Link
from .node import BorderRouter, Host, Node, Switch
from .packet import ETHERNET_HEADER, IP_HEADER, Packet, Protocol, TcpFlags
from .tcp import MSS, build_session
from .topology import LanTestbed
from .trace import TimedPacket, Trace

__all__ = [
    "IPv4Address",
    "Subnet",
    "FlowKey",
    "Link",
    "Node",
    "Host",
    "Switch",
    "BorderRouter",
    "Packet",
    "Protocol",
    "TcpFlags",
    "ETHERNET_HEADER",
    "IP_HEADER",
    "MSS",
    "build_session",
    "LanTestbed",
    "TimedPacket",
    "Trace",
]
