"""Simulated anomaly/flow-based IDS ("ManHunt-1.2"-like).

Profile: the scalable traffic-analysis system: behaviour/anomaly detection
over flow features (light payload touch), an intelligent dynamic load
balancer feeding a sensor farm, and aggressive automated response including
router blocking and honeypot redirection.  Highest throughput and lethal
dose of the field; catches novel attacks; pays for it with a higher false
positive ratio and an in-line balancer latency.
"""

from __future__ import annotations

from ..ids.analyzer import Analyzer
from ..ids.console import ManagementConsole
from ..ids.loadbalancer import DynamicBalancer
from ..ids.monitor import Monitor
from ..ids.pipeline import IdsPipeline
from ..ids.response import Honeypot, RouterInterface, SnmpTrapReceiver
from ..ids.sensor import AnomalyDetector, FailureMode, Sensor
from ..net.address import IPv4Address
from ..net.topology import LanTestbed
from ..sim.engine import Engine
from .base import Deployment, Product, ProductFacts

__all__ = ["ManhuntProduct"]


class ManhuntProduct(Product):
    """Anomaly/flow-based sensor farm with dynamic load balancing."""

    facts = ProductFacts(
        name="sim-manhunt",
        vendor="simulated (traffic-analysis class)",
        version="1.2",
        detection="anomaly",
        scope="network",
        remote_management="full-secure",
        install_complexity="manual",
        policy_maintenance="central-live",
        license="per-site",
        outsourced="in-house",
        monitored_host_cpu_fraction=0.0,
        dedicated_hosts=5,
        docs="fair",
        filter_generation="automatic",
        eval_copy=False,
        admin_effort="high",
        product_lifetime_years=3.0,
        support="business-hours",
        cost_3yr_usd=120_000,
        training="docs-only",
        adjustable_sensitivity="continuous",
        data_pool_select="runtime",
        host_based_fraction=0.0,
        multi_sensor="integrated",
        load_balancing="dynamic",
        autonomous_learning=True,
        interoperability="limited",
        session_recording=False,
        trend_analysis=True,
    )

    def __init__(self, sensitivity: float = 0.5, n_sensors: int = 4) -> None:
        self.sensitivity = sensitivity
        self.n_sensors = n_sensors

    def deploy(self, engine: Engine, testbed: LanTestbed) -> Deployment:
        sensors = [
            Sensor(
                engine, f"mh-sensor{i}",
                AnomalyDetector(sensitivity=self.sensitivity),
                ops_rate=80e6,
                header_ops=400.0,
                per_byte_ops=6.0,    # flow-level analysis: light payload touch
                parse_ops=800.0,
                max_queue_delay_s=0.05,
                lethal_drop_rate=6000.0,
                failure_mode=FailureMode.RESTART,
                restart_time_s=1.0,
            )
            for i in range(self.n_sensors)
        ]
        balancer = DynamicBalancer(engine, "mh-balancer", sensors,
                                   capacity_pps=120_000,
                                   induced_latency_s=200e-6)  # in-line
        analyzer = Analyzer(engine, "mh-analyzer", analysis_delay_s=0.02,
                            correlation=True)
        monitor = Monitor(engine, "mh-monitor", notify_delay_s=0.1,
                          channels=("console", "email"))
        honeypot = Honeypot(engine, IPv4Address("10.0.0.250"))
        console = ManagementConsole(
            engine, "mh-console",
            router=RouterInterface(engine, testbed.router,
                                   update_latency_s=0.4),
            snmp=SnmpTrapReceiver(engine),
            honeypot=honeypot,
            secure_remote=True,
        )
        pipeline = IdsPipeline(
            engine, self.facts.name, sensors, [analyzer], monitor,
            balancer=balancer, console=console,
            separated=True,
        ).wire()
        return Deployment(engine, self.facts, monitor, pipeline=pipeline,
                          console=console, inline_latency_s=200e-6,
                          testbed=testbed)
