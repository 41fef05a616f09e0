"""Topology construction for the evaluation testbed.

:class:`LanTestbed` assembles the Figure-1 deployment: an Internet ingress,
a border router, a switch fronting a protected subnet of hosts, and an
optional SPAN mirror point where a passive IDS can tap the traffic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import ConfigurationError
from ..sim.engine import Engine
from .address import IPv4Address, Subnet
from .link import Link
from .node import BorderRouter, Host, Switch
from .packet import Packet

__all__ = ["LanTestbed"]


class LanTestbed:
    """The simulated protected network of Figure 1.

    Parameters
    ----------
    engine:
        Simulation engine.
    subnet:
        CIDR of the protected LAN.
    n_hosts:
        Number of protected hosts to instantiate.
    lan_bandwidth_bps / wan_bandwidth_bps:
        Link speeds.  The paper's cluster scenario is a tuned high-speed
        LAN; the defaults reflect 2002-era gigabit LAN / fast-Ethernet WAN.
    span_bandwidth_bps:
        Capacity of the mirror port feeding a passive sensor.
    """

    def __init__(
        self,
        engine: Engine,
        subnet: str = "10.0.0.0/24",
        n_hosts: int = 8,
        lan_bandwidth_bps: float = 1e9,
        wan_bandwidth_bps: float = 100e6,
        span_bandwidth_bps: float = 1e9,
        queue_bytes: int = 512 * 1024,
    ) -> None:
        if n_hosts < 1:
            raise ConfigurationError("n_hosts must be >= 1")
        self.engine = engine
        self.subnet = Subnet(subnet)
        self.router = BorderRouter(engine)
        self.switch = Switch(engine)
        self.hosts: List[Host] = []
        self._by_address: Dict[int, Host] = {}

        # Internet -> router (WAN ingress handled directly via router API).
        # Router -> switch.
        self.router_switch = Link(
            engine, lan_bandwidth_bps, 20e-6, queue_bytes,
            sink=self.switch.receive, name="router->switch",
        )
        self.router.lan_side = self.router_switch

        # Switch -> router (outbound traffic leaving the LAN).
        self.switch_router = Link(
            engine, lan_bandwidth_bps, 20e-6, queue_bytes,
            sink=self.router.receive_from_lan, name="switch->router",
        )
        self.switch.default_route = self.switch_router

        # WAN egress: discard packets (the Internet absorbs them) by default.
        self.wan_egress = Link(
            engine, wan_bandwidth_bps, 5e-3, queue_bytes,
            sink=lambda pkt: None, name="router->wan",
        )
        self.router.wan_side = self.wan_egress

        for i in range(n_hosts):
            addr = self.subnet.allocate()
            host = Host(engine, f"host{i}", addr)
            down = Link(engine, lan_bandwidth_bps, 10e-6, queue_bytes,
                        sink=host.receive, name=f"switch->{host.name}")
            up = Link(engine, lan_bandwidth_bps, 10e-6, queue_bytes,
                      sink=self.switch.receive, name=f"{host.name}->switch")
            host.uplink = up
            self.switch.attach(addr, down)
            self.hosts.append(host)
            self._by_address[addr.value] = host

        self.span_bandwidth_bps = span_bandwidth_bps
        self.queue_bytes = queue_bytes
        self._span_links: List[Link] = []

    # ------------------------------------------------------------------
    def host_by_address(self, address: IPv4Address) -> Optional[Host]:
        return self._by_address.get(IPv4Address(address).value)

    def add_span_tap(self, sink: Callable[[Packet], None], name: str = "span") -> Link:
        """Mirror all switched traffic to ``sink`` over a finite SPAN link."""
        link = Link(
            self.engine, self.span_bandwidth_bps, 10e-6, self.queue_bytes,
            sink=sink, name=name,
        )
        self.switch.add_span(link)
        self._span_links.append(link)
        return link

    def inject_from_wan(self, pkt: Packet) -> None:
        """Deliver a packet arriving from the Internet to the border router."""
        self.router.receive_from_wan(pkt)

    def inject_on_lan(self, pkt: Packet) -> None:
        """Deliver a packet originating inside the LAN to the switch."""
        self.switch.receive(pkt)

    @property
    def total_dropped_packets(self) -> int:
        links = [self.router_switch, self.switch_router, self.wan_egress, *self._span_links]
        for host in self.hosts:
            if host.uplink is not None:
                links.append(host.uplink)
        return sum(l.dropped_packets for l in links)
