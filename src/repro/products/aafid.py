"""Simulated autonomous-agents research IDS ("AAFID"-like).

Profile: the research prototype: autonomous host agents on every protected
host feeding a shared analysis engine -- fully host-based monitoring with
DoD-C2-depth audit (the ~20 % host-CPU case of section 2.1), excellent
insider/masquerade visibility, but no network sensing (scans and floods
against unmonitored paths are invisible), no management console, no
automated response, research-grade logistics, and hang-on-failure
robustness.
"""

from __future__ import annotations

from typing import List

from ..errors import ConfigurationError
from ..ids.analyzer import Analyzer
from ..ids.component import validate_wiring
from ..ids.host import HostAgent, LoggingLevel
from ..ids.monitor import Monitor
from ..net.topology import LanTestbed
from ..sim.engine import Engine
from .base import Deployment, Product, ProductFacts

__all__ = ["AafidProduct"]


class AafidProduct(Product):
    """Autonomous host agents reporting to one analysis engine."""

    facts = ProductFacts(
        name="sim-aafid",
        vendor="simulated (research autonomous-agents class)",
        version="0.10",
        detection="hybrid",
        scope="host",
        remote_management="none",
        install_complexity="manual",
        policy_maintenance="per-sensor",
        license="enterprise",     # research code: freely licensed
        outsourced="in-house",
        monitored_host_cpu_fraction=0.20,  # C2-level audit
        dedicated_hosts=1,
        docs="poor",
        filter_generation="manual",
        eval_copy=True,
        admin_effort="high",
        product_lifetime_years=1.0,
        support="none",
        cost_3yr_usd=15_000,      # staff time only
        training="none",
        adjustable_sensitivity="none",
        data_pool_select="none",
        host_based_fraction=1.0,
        multi_sensor="several",
        load_balancing="none",
        autonomous_learning=True,
        interoperability="none",
        session_recording=False,
        trend_analysis=False,
    )

    def __init__(self, logging_level: LoggingLevel = LoggingLevel.C2) -> None:
        self.logging_level = logging_level

    def deploy(self, engine: Engine, testbed: LanTestbed) -> Deployment:
        if not testbed.hosts:
            raise ConfigurationError("AAFID needs monitored hosts")
        analyzer = Analyzer(engine, "aafid-analyzer", analysis_delay_s=0.1,
                            correlation=True)
        monitor = Monitor(engine, "aafid-monitor", notify_delay_s=0.5,
                          channels=("console",))
        agents: List[HostAgent] = [
            HostAgent(engine, host, logging_level=self.logging_level,
                      failed_login_threshold=8)
            for host in testbed.hosts
        ]
        for agent in agents:
            agent.add_sink(analyzer.receive)
        analyzer.set_sink(monitor.receive)
        # Host agents are the sensing subprocess; check the Figure-2 rules.
        links = [(agent, analyzer) for agent in agents]
        links.append((analyzer, monitor))
        validate_wiring([*agents, analyzer, monitor], links)
        return Deployment(engine, self.facts, monitor, pipeline=None,
                          host_agents=agents, console=None,
                          inline_latency_s=0.0, testbed=testbed,
                          analyzers=[analyzer])
