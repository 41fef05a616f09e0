"""Simulated network-signature IDS ("NID-5"-like).

Profile: the classic single-box passive network IDS with deep payload
inspection and a powerful filter-authoring language.  Strong on known
attacks and automated filter generation; a single sensor with no load
balancing, cold-reboot failure behaviour, and limited remote management.
"""

from __future__ import annotations

from ..ids.analyzer import Analyzer
from ..ids.console import ManagementConsole
from ..ids.loadbalancer import NoBalancer
from ..ids.monitor import Monitor
from ..ids.pipeline import IdsPipeline
from ..ids.response import Firewall
from ..ids.sensor import FailureMode, Sensor, SignatureDetector
from ..net.topology import LanTestbed
from ..sim.engine import Engine
from .base import Deployment, Product, ProductFacts

__all__ = ["NidProduct"]


class NidProduct(Product):
    """Single-sensor deep-inspection signature IDS."""

    facts = ProductFacts(
        name="sim-nid",
        vendor="simulated (network-flight-recorder class)",
        version="5.0",
        detection="signature",
        scope="network",
        remote_management="limited",
        install_complexity="guided",
        policy_maintenance="central-restart",
        license="per-site",
        outsourced="in-house",
        monitored_host_cpu_fraction=0.0,
        dedicated_hosts=1,
        docs="good",
        filter_generation="automatic",
        eval_copy=True,
        admin_effort="medium",
        product_lifetime_years=5.0,
        support="business-hours",
        cost_3yr_usd=60_000,
        training="vendor-courses",
        adjustable_sensitivity="coarse",
        data_pool_select="runtime",
        host_based_fraction=0.0,
        multi_sensor="single",
        load_balancing="none",
        autonomous_learning=False,
        interoperability="limited",
        session_recording=True,
        trend_analysis=False,
    )

    def __init__(self, sensitivity: float = 0.5) -> None:
        self.sensitivity = sensitivity

    def deploy(self, engine: Engine, testbed: LanTestbed) -> Deployment:
        sensor = Sensor(
            engine, "nid-sensor",
            SignatureDetector(sensitivity=self.sensitivity),
            ops_rate=60e6,
            header_ops=500.0,
            per_byte_ops=25.0,
            parse_ops=5000.0,
            max_queue_delay_s=0.05,
            lethal_drop_rate=1500.0,
            failure_mode=FailureMode.REBOOT,
            reboot_time_s=60.0,
        )
        balancer = NoBalancer(engine, "nid-tap", [sensor],
                              induced_latency_s=0.0)
        analyzer = Analyzer(engine, "nid-analyzer", analysis_delay_s=0.05,
                            correlation=False)
        monitor = Monitor(engine, "nid-monitor", notify_delay_s=0.2,
                          channels=("console", "email"))
        console = ManagementConsole(
            engine, "nid-console",
            firewall=Firewall(engine, update_latency_s=0.3),
            secure_remote=False,
        )
        pipeline = IdsPipeline(
            engine, self.facts.name, [sensor], [analyzer], monitor,
            balancer=balancer, console=console,
            separated=False,  # combined sensor/analyzer box
        ).wire()
        return Deployment(engine, self.facts, monitor, pipeline=pipeline,
                          console=console, inline_latency_s=0.0,
                          testbed=testbed)
