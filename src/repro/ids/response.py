"""External response devices: firewall, router interface, SNMP, honeypot.

Table 3's interaction metrics: "Firewall Interaction -- ability to interact
with a firewall.  Perhaps to update a firewall's block list"; "Router
Interaction -- ... perhaps it might redirect attacker traffic to a honeypot";
"SNMP Interaction -- ability of the IDS to send an SNMP trap".  Each device
records what it was asked to do and when, so the harness can score response
capability and latency ("near real-time automated response", section 3.3).
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import ConfigurationError
from ..net.address import IPv4Address
from ..net.node import BorderRouter
from ..sim.engine import Engine

__all__ = ["Firewall", "RouterInterface", "SnmpTrapReceiver", "Honeypot"]


class Firewall:
    """A boundary packet filter with an updatable block list.

    ``update_latency_s`` models the rule-push delay from the management
    console.  The testbed routes no packets through the firewall, so the
    block list records what was blocked; it filters no traffic.
    """

    def __init__(self, engine: Engine, name: str = "firewall",
                 update_latency_s: float = 0.2) -> None:
        if update_latency_s < 0:
            raise ConfigurationError("update_latency_s must be >= 0")
        self.engine = engine
        self.name = name
        self.update_latency_s = float(update_latency_s)
        self._blocked: set[int] = set()
        self.block_requests: List[Tuple[float, IPv4Address]] = []

    def request_block(self, address: IPv4Address) -> None:
        """Asynchronously add ``address`` to the block list."""
        self.block_requests.append((self.engine.now, address))
        self.engine.schedule(self.update_latency_s, self._apply, address)

    def _apply(self, address: IPv4Address) -> None:
        self._blocked.add(address.value)


class RouterInterface:
    """Management-plane adapter for a :class:`BorderRouter`.

    Blocks at the border (further out than the firewall) and supports
    redirecting an attacker to a honeypot.
    """

    def __init__(self, engine: Engine, router: BorderRouter,
                 update_latency_s: float = 0.5) -> None:
        if update_latency_s < 0:
            raise ConfigurationError("update_latency_s must be >= 0")
        self.engine = engine
        self.router = router
        self.update_latency_s = float(update_latency_s)
        self.block_requests: List[Tuple[float, IPv4Address]] = []
        self.redirect_requests: List[Tuple[float, IPv4Address]] = []

    def request_block(self, address: IPv4Address) -> None:
        self.block_requests.append((self.engine.now, address))
        self.engine.schedule(self.update_latency_s, self.router.block, address)

    def request_redirect(self, address: IPv4Address, honeypot: "Honeypot") -> None:
        self.redirect_requests.append((self.engine.now, address))
        self.engine.schedule(self.update_latency_s, honeypot.attract, address)


class SnmpTrapReceiver:
    """Records SNMP traps sent by the IDS to network management."""

    def __init__(self, engine: Engine, name: str = "nms") -> None:
        self.engine = engine
        self.name = name
        self.traps: List[Tuple[float, str, str]] = []  # (time, oid, detail)

    def trap(self, oid: str, detail: str = "") -> None:
        self.traps.append((self.engine.now, oid, detail))


class Honeypot:
    """A decoy destination attacker traffic can be redirected to."""

    def __init__(self, engine: Engine, address: IPv4Address,
                 name: str = "honeypot") -> None:
        self.engine = engine
        self.address = address
        self.name = name
        self._attracted: set[int] = set()

    def attract(self, attacker: IPv4Address) -> None:
        self._attracted.add(attacker.value)
