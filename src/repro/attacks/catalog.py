"""Attack registry and standard scenario kits.

The evaluation harness replays "canned data with known attack content"
(section 4); :func:`standard_attack_suite` assembles the canonical campaign
used by the accuracy experiments -- one instance of every attack class,
spread across the scenario timeline, covering every :class:`AttackKind`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..errors import ConfigurationError
from ..net.address import IPv4Address
from .base import Attack, AttackKind
from .bruteforce import TelnetBruteForce
from .dos import SynFlood, UdpFlood
from .exploits import BufferOverflowExploit, CgiProbe, NovelExploit
from .insider import TrustAbuse
from .scans import HostSweep, PortScan, SlowPortScan
from .tunnel import IcmpTunnel

__all__ = ["CATALOG_VERSION", "ATTACK_CLASSES", "standard_attack_suite"]

#: Version of the canned attack campaign.  Bump whenever the suite's
#: composition, timing, or any attack generator's emitted traffic changes:
#: it is folded into the evaluation result-cache key, so stale cached
#: measurements are invalidated automatically.
CATALOG_VERSION = 1

ATTACK_CLASSES: Dict[str, type] = {
    "port-scan": PortScan,
    "slow-port-scan": SlowPortScan,
    "host-sweep": HostSweep,
    "syn-flood": SynFlood,
    "udp-flood": UdpFlood,
    "telnet-brute-force": TelnetBruteForce,
    "buffer-overflow": BufferOverflowExploit,
    "cgi-probe": CgiProbe,
    "novel-exploit": NovelExploit,
    "trust-abuse": TrustAbuse,
    "icmp-tunnel": IcmpTunnel,
}



def standard_attack_suite(
    external_attacker: IPv4Address,
    lan_hosts: Sequence[IPv4Address],
    *,
    include_dos: bool = True,
    flood_rate_pps: float = 1500.0,
) -> List[tuple]:
    """The canonical labeled campaign: ``[(start_offset_s, Attack), ...]``.

    ``lan_hosts[0]`` plays the cluster master / main server;
    ``lan_hosts[1]`` plays the compromised insider host.
    """
    hosts = list(lan_hosts)
    if len(hosts) < 3:
        raise ConfigurationError("standard suite needs >= 3 LAN hosts")
    server, insider, victim = hosts[0], hosts[1], hosts[2]
    outside = IPv4Address("198.18.0.99")
    # A real sweep probes the address range, not just live hosts.
    sweep_targets = list(hosts)
    while len(sweep_targets) < 16:
        sweep_targets.append(sweep_targets[-1] + 1)

    suite: List[tuple] = [
        (2.0, HostSweep(external_attacker, sweep_targets, rate_pps=50.0)),
        (6.0, PortScan(external_attacker, server, ports=range(1, 513),
                       rate_pps=150.0)),
        (12.0, CgiProbe(external_attacker, server)),
        (18.0, BufferOverflowExploit(external_attacker, victim)),
        (24.0, TelnetBruteForce(external_attacker, victim, attempts=60,
                                rate_per_s=15.0)),
        (32.0, NovelExploit(external_attacker, server)),
        (36.0, TrustAbuse(insider, server)),
        (44.0, IcmpTunnel(insider, outside, total_bytes=16_000)),
    ]
    if include_dos:
        suite.append((52.0, SynFlood(server, rate_pps=flood_rate_pps,
                                     duration_s=4.0)))
        suite.append((58.0, UdpFlood(external_attacker, server,
                                     rate_pps=flood_rate_pps, duration_s=2.0)))
    return suite
