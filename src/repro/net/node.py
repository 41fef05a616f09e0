"""Network nodes: hosts, switches with port mirroring, border router.

The testbed follows Figure 1 of the paper: traffic enters from the
"Internet" through a border router onto the protected LAN; the IDS either
sits *in-line* (all traffic passes through it, adding latency) or receives a
*mirrored* copy from a switch SPAN port (no added latency, but the mirror
port itself is a finite link that can drop under load).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..sim.engine import Engine
from ..sim.resources import HostCpu
from .address import IPv4Address
from .link import Link
from .packet import Packet

__all__ = ["Node", "Host", "Switch", "BorderRouter"]

PacketHandler = Callable[[Packet], None]


class Node:
    """Base network node: receives packets and forwards to attached links."""

    def __init__(self, engine: Engine, name: str) -> None:
        self.engine = engine
        self.name = name
        self.received_packets = 0
        self.received_bytes = 0

    def receive(self, pkt: Packet) -> None:
        self.received_packets += 1
        self.received_bytes += pkt.wire_size

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"


class Host(Node):
    """An end host with an address, a CPU, and pluggable packet handlers.

    Handlers registered with :meth:`on_packet` run for every packet delivered
    to this host (e.g. a server application, or a host-based IDS agent).
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        address: IPv4Address,
        cpu_capacity_ops: float = 1e9,
    ) -> None:
        super().__init__(engine, name)
        self.address = address
        self.cpu = HostCpu(engine, capacity_ops=cpu_capacity_ops, name=name)
        self._handlers: List[PacketHandler] = []

    def on_packet(self, handler: PacketHandler) -> None:
        self._handlers.append(handler)

    def receive(self, pkt: Packet) -> None:
        super().receive(pkt)
        for handler in self._handlers:
            handler(pkt)


class Switch(Node):
    """A learning-free switch: forwards by destination address table and can
    mirror every forwarded packet to SPAN ports.

    Mirroring copies the packet (fresh pid, same ground truth) onto the SPAN
    link; if the SPAN link saturates, the copies are dropped there -- exactly
    the visibility loss a passive sensor suffers at high load.
    """

    def __init__(self, engine: Engine, name: str = "switch") -> None:
        super().__init__(engine, name)
        self._table: Dict[int, Link] = {}
        self._span: List[Link] = []
        self.default_route: Optional[Link] = None
        self.forwarded = 0
        self.unroutable = 0
        self.mirrored = 0

    def attach(self, address: IPv4Address, link: Link) -> None:
        """Bind a destination address to an egress link."""
        self._table[address.value] = link

    def add_span(self, link: Link) -> None:
        """Add a SPAN (mirror) port."""
        self._span.append(link)

    def receive(self, pkt: Packet) -> None:
        super().receive(pkt)
        egress = self._table.get(pkt.dst.value, self.default_route)
        for span in self._span:
            span.send(pkt.copy())
            self.mirrored += 1
        if egress is None:
            self.unroutable += 1
            return
        egress.send(pkt)
        self.forwarded += 1


class BorderRouter(Node):
    """Boundary device between the Internet side and the protected LAN.

    Holds a *block list* of source addresses, populated by the management
    console's response actions (section 2.2 / Table 3 "Router
    Interaction").  The testbed routes no packets through the router, so
    the list records what was blocked; it filters no traffic.
    """

    def __init__(self, engine: Engine, name: str = "border") -> None:
        super().__init__(engine, name)
        self._blocked: set[int] = set()

    def block(self, address: IPv4Address) -> None:
        self._blocked.add(address.value)
