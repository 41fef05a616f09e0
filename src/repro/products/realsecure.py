"""Simulated hybrid host+network IDS ("RealSecure-5"-like).

Profile: the console-centric enterprise suite: network signature sensors
behind a flow-hash spreader *plus* host agents with nominal event logging on
every protected host, all managed from one secure console with firewall and
SNMP response.  Service-restart failure behaviour.
"""

from __future__ import annotations

from ..ids.analyzer import Analyzer
from ..ids.console import ManagementConsole
from ..ids.host import HostAgent, LoggingLevel
from ..ids.loadbalancer import HashBalancer
from ..ids.monitor import Monitor
from ..ids.pipeline import IdsPipeline
from ..ids.response import Firewall, SnmpTrapReceiver
from ..ids.sensor import FailureMode, Sensor, SignatureDetector
from ..net.topology import LanTestbed
from ..sim.engine import Engine
from .base import Deployment, Product, ProductFacts

__all__ = ["RealSecureProduct"]


class RealSecureProduct(Product):
    """Hybrid host+network signature suite with central secure console."""

    facts = ProductFacts(
        name="sim-realsecure",
        vendor="simulated (enterprise hybrid class)",
        version="5.0",
        detection="signature",
        scope="both",
        remote_management="full-secure",
        install_complexity="guided",
        policy_maintenance="central-live",
        license="per-sensor",
        outsourced="optional",
        monitored_host_cpu_fraction=0.04,
        dedicated_hosts=2,
        docs="good",
        filter_generation="guided",
        eval_copy=True,
        admin_effort="medium",
        product_lifetime_years=6.0,
        support="24x7",
        cost_3yr_usd=90_000,
        training="vendor-courses",
        adjustable_sensitivity="coarse",
        data_pool_select="static",
        host_based_fraction=0.3,
        multi_sensor="integrated",
        load_balancing="static",
        autonomous_learning=False,
        interoperability="standards",
        session_recording=True,
        trend_analysis=True,
    )

    def __init__(self, sensitivity: float = 0.5, n_sensors: int = 2) -> None:
        self.sensitivity = sensitivity
        self.n_sensors = n_sensors

    def deploy(self, engine: Engine, testbed: LanTestbed) -> Deployment:
        sensors = [
            Sensor(
                engine, f"rs-sensor{i}",
                SignatureDetector(sensitivity=self.sensitivity),
                ops_rate=45e6,
                header_ops=600.0,
                per_byte_ops=20.0,
                parse_ops=4000.0,
                max_queue_delay_s=0.05,
                lethal_drop_rate=2500.0,
                failure_mode=FailureMode.RESTART,
                restart_time_s=2.0,
            )
            for i in range(self.n_sensors)
        ]
        balancer = HashBalancer(engine, "rs-balancer", sensors,
                                capacity_pps=40_000,
                                induced_latency_s=50e-6)
        analyzer = Analyzer(engine, "rs-analyzer", analysis_delay_s=0.05,
                            correlation=True)
        monitor = Monitor(engine, "rs-monitor", notify_delay_s=0.15,
                          channels=("console", "email", "pager"))
        console = ManagementConsole(
            engine, "rs-console",
            firewall=Firewall(engine, update_latency_s=0.2),
            snmp=SnmpTrapReceiver(engine),
            secure_remote=True,
        )
        pipeline = IdsPipeline(
            engine, self.facts.name, sensors, [analyzer], monitor,
            balancer=balancer, console=console,
            separated=True,  # dedicated analysis/console host
        ).wire()
        agents = [
            HostAgent(engine, host, logging_level=LoggingLevel.NOMINAL)
            for host in testbed.hosts
        ]
        for agent in agents:
            agent.add_sink(analyzer.receive)
        return Deployment(engine, self.facts, monitor, pipeline=pipeline,
                          host_agents=agents, console=console,
                          inline_latency_s=50e-6, testbed=testbed)
