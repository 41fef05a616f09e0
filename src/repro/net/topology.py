"""Topology construction for the evaluation testbed.

:class:`LanTestbed` assembles the Figure-1 deployment target: a border
router in front of a protected subnet of hosts.  Products deploy onto it:
host-based agents attach to its hosts and a router interface drives the
border router's block list.  The harness hands every monitored packet to
the deployment directly (tap semantics), so the testbed carries no links.
"""

from __future__ import annotations

from typing import List

from ..errors import ConfigurationError
from ..sim.engine import Engine
from .address import Subnet
from .node import BorderRouter, Host

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
    """

    def __init__(
        self,
        engine: Engine,
        subnet: str = "10.0.0.0/24",
        n_hosts: int = 8,
    ) -> None:
        if n_hosts < 1:
            raise ConfigurationError("n_hosts must be >= 1")
        self.engine = engine
        self.subnet = Subnet(subnet)
        self.router = BorderRouter(engine)
        self.hosts: List[Host] = [
            Host(engine, f"host{i}", self.subnet.allocate())
            for i in range(n_hosts)]
