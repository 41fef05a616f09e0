"""Management subprocess: configuration and automated response.

Section 2.2: "Management consoles allow the operator to configure the IDS
and to manage the threat by manipulating the incoming data stream via
external devices like firewalls and routers ... the ability to automatically
and accurately filter out offending traffic is key to a real-time response
to threats."

:class:`ManagementConsole` is the 1c side of the 1:1c monitor pairing and
holds 1c:M management links to the other components (validated with the
pipeline's wiring).  It binds symbolic
:class:`ResponseAction` s to concrete response devices and records every
response with its request->effect latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..net.address import IPv4Address
from ..sim.engine import Engine
from .alert import Alert
from .component import Component, Subprocess
from .policy import ResponseAction
from .response import Firewall, Honeypot, RouterInterface, SnmpTrapReceiver

__all__ = ["ResponseLog", "ManagementConsole"]


@dataclass(frozen=True)
class ResponseLog:
    """One automated response taken by the console."""

    time: float
    action: ResponseAction
    target: Optional[IPv4Address]
    alert_category: str


class ManagementConsole(Component):
    """Central configuration + automated response dispatcher.

    Parameters
    ----------
    secure_remote:
        Whether remote management is encrypted/authenticated (a logistics
        fact feeding the *Distributed Management* metric).
    """

    kind = Subprocess.MANAGER

    def __init__(
        self,
        engine: Engine,
        name: str,
        firewall: Optional[Firewall] = None,
        router: Optional[RouterInterface] = None,
        snmp: Optional[SnmpTrapReceiver] = None,
        honeypot: Optional[Honeypot] = None,
        secure_remote: bool = True,
    ) -> None:
        super().__init__(name)
        self.engine = engine
        self.firewall = firewall
        self.router = router
        self.snmp = snmp
        self.honeypot = honeypot
        self.secure_remote = secure_remote
        self.responses: List[ResponseLog] = []

    # ------------------------------------------------------------------
    # response dispatch (bound to Monitor.set_responder)
    # ------------------------------------------------------------------
    def respond(self, action: ResponseAction, alert: Alert) -> None:
        target: Optional[IPv4Address] = alert.src
        if action is ResponseAction.FIREWALL_BLOCK and self.firewall is not None:
            self.firewall.request_block(alert.src)
        elif action is ResponseAction.ROUTER_BLOCK and self.router is not None:
            self.router.request_block(alert.src)
        elif action is ResponseAction.SNMP_TRAP and self.snmp is not None:
            self.snmp.trap(oid="1.3.6.1.4.1.2002.1",
                           detail=f"{alert.category} from {alert.src}")
            target = None
        elif action is ResponseAction.HONEYPOT_REDIRECT and (
                self.router is not None and self.honeypot is not None):
            self.router.request_redirect(alert.src, self.honeypot)
        else:
            return  # capability not present on this product
        self.responses.append(ResponseLog(
            time=self.engine.now, action=action, target=target,
            alert_category=alert.category))

    @property
    def capabilities(self) -> Dict[str, bool]:
        """Which interaction channels this deployment actually has."""
        return {
            "firewall": self.firewall is not None,
            "router": self.router is not None,
            "snmp": self.snmp is not None,
            "honeypot": self.honeypot is not None,
        }
