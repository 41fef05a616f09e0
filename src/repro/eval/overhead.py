"""Operational performance impact: monitored-host CPU cost.

Table 3: "Operational Performance Impact -- negative impact on the host
processing capacity due to the operation of the IDS.  Expressed as a
percentage of processing power."  Section 2.1 gives the calibration points
this experiment reproduces: nominal event logging 3-5 %, DoD C2-level audit
~20 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..ids.host import HostAgent, LoggingLevel
from ..net.topology import LanTestbed
from ..products.base import Deployment
from ..sim.engine import Engine
from ..traffic.profiles import ClusterProfile

__all__ = ["OverheadReport", "measure_host_overhead", "logging_level_overhead"]


@dataclass(frozen=True)
class OverheadReport:
    """Host-CPU impact of a deployed product."""

    product: str
    mean_host_cpu_fraction: float
    max_host_cpu_fraction: float
    monitored_hosts: int


def measure_host_overhead(
    deployment: Deployment,
    observe_s: float = 10.0,
) -> OverheadReport:
    """Time-weighted CPU impact on monitored hosts during benign load."""
    testbed = deployment.testbed
    if testbed is None or not deployment.host_agents:
        return OverheadReport(product=deployment.name,
                              mean_host_cpu_fraction=0.0,
                              max_host_cpu_fraction=0.0,
                              monitored_hosts=0)
    engine = deployment.engine
    nodes = [h.address for h in testbed.hosts]
    benign = ClusterProfile(nodes).generate(observe_s,
                                            np.random.default_rng(1))
    start = engine.now
    for t, pkt in benign:
        engine.schedule_at(start + t, deployment.ingest, pkt)
    engine.run(until=start + observe_s)

    fractions: List[float] = []
    for agent in deployment.host_agents:
        fractions.append(agent.host.cpu.consumer_average(agent.name))
    return OverheadReport(
        product=deployment.name,
        mean_host_cpu_fraction=float(np.mean(fractions)),
        max_host_cpu_fraction=float(np.max(fractions)),
        monitored_hosts=len(fractions))


def logging_level_overhead(level: LoggingLevel,
                           observe_s: float = 10.0) -> float:
    """Measured host-CPU fraction of one agent at a given audit depth.

    Reproduces the section-2.1 calibration (bench E2): NOMINAL lands in the
    3-5 % band, C2 at ~20 %.
    """
    engine = Engine()
    testbed = LanTestbed(engine, n_hosts=2)
    agent = HostAgent(engine, testbed.hosts[0], logging_level=level)
    engine.run(until=observe_s)
    return agent.host.cpu.consumer_average(agent.name, until=observe_s)
