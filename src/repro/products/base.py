"""Product model: facts, deployment, and the product registry base.

The paper evaluated three commercial products (NFR NID 5.0, ISS RealSecure
5.0, Recourse ManHunt 1.2) and one research system (AAFID).  Those products
are closed/proprietary, so this reproduction substitutes *parameterized
simulated products* that instantiate the paper's own general architecture
with capability profiles spanning the same design space: network-signature,
hybrid host+network, anomaly/flow-based with dynamic load balancing, and
autonomous host agents.  The profiles are derived from the paper's
classification discussion, not from the vendors' implementations.

Two artifacts per product:

* :class:`ProductFacts` -- the "open source material" (section 3.1): the
  qualitative facts a procurer reads off data sheets.  The scorecard's
  open-source-scored metrics are derived from these.
* :class:`Deployment` -- the live simulated system under test on the
  testbed.  The analysis-scored metrics are *measured* against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..ids.anomaly import AnomalyBaseline
from ..ids.console import ManagementConsole
from ..ids.host import HostAgent
from ..ids.monitor import Monitor
from ..ids.pipeline import IdsPipeline
from ..ids.policy import ResponseAction
from ..ids.response import Firewall, RouterInterface
from ..ids.sensor import FailureMode, Sensor
from ..net.packet import Packet
from ..net.topology import LanTestbed
from ..net.trace import Trace
from ..sim.engine import Engine

__all__ = ["ProductFacts", "Deployment", "DeploymentSnapshot", "Product"]


@dataclass(frozen=True)
class ProductFacts:
    """Data-sheet facts of a product (inputs to open-source scoring)."""

    name: str
    vendor: str
    version: str
    detection: str               # "signature" | "anomaly" | "hybrid"
    scope: str                   # "network" | "host" | "both"

    # ----- logistics -----
    remote_management: str       # "none" | "limited" | "full-secure"
    install_complexity: str      # "turnkey" | "guided" | "manual"
    policy_maintenance: str      # "central-live" | "central-restart" | "per-sensor"
    license: str                 # "enterprise" | "per-site" | "per-sensor"
    outsourced: str              # "in-house" | "optional" | "required-scans"
    monitored_host_cpu_fraction: float
    dedicated_hosts: int
    docs: str                    # "poor" | "fair" | "good"
    filter_generation: str       # "none" | "manual" | "guided" | "automatic"
    eval_copy: bool
    admin_effort: str            # "high" | "medium" | "low"
    product_lifetime_years: float
    support: str                 # "none" | "business-hours" | "24x7"
    cost_3yr_usd: float
    training: str                # "none" | "docs-only" | "vendor-courses"

    # ----- architecture -----
    adjustable_sensitivity: str  # "none" | "coarse" | "continuous"
    data_pool_select: str        # "none" | "static" | "runtime"
    host_based_fraction: float   # share of input from host data
    multi_sensor: str            # "single" | "several" | "integrated"
    load_balancing: str          # "none" | "static" | "dynamic"
    autonomous_learning: bool
    interoperability: str        # "none" | "limited" | "standards"
    session_recording: bool
    trend_analysis: bool

    @property
    def network_based_fraction(self) -> float:
        return 1.0 - self.host_based_fraction


@dataclass(frozen=True)
class DeploymentSnapshot:
    """Process-portable summary of a :class:`Deployment` after a run.

    A live deployment holds the simulation engine, rule closures, and the
    full component graph, none of which pickle.  The snapshot captures
    exactly the state the scoring layer (``repro.eval.observer``) reads, in
    plain-data form, so measurement work units can cross process boundaries
    and be memoized on disk.  Collections are stored sorted so two
    snapshots of equivalent runs compare (and serialize) identically
    regardless of in-process set ordering.
    """

    facts: ProductFacts
    inline_latency_s: float
    #: distinct sensor failure modes, sorted by enum value
    sensor_failure_modes: Tuple[FailureMode, ...]
    console_present: bool
    #: interaction channels ("firewall"/"router"/"snmp"/"honeypot")
    capabilities: Dict[str, bool]
    #: distinct automated response actions fired, sorted by enum value
    fired_actions: Tuple[ResponseAction, ...]
    #: any analyzer performs secondary (correlation) analysis
    correlating: bool
    notification_channels: int
    notifications_total: int
    #: a firewall or router is present to receive generated filters
    has_filter_path: bool
    #: blocked source addresses (int values), firewall requests then router
    filter_blocked_sources: Tuple[int, ...]

    @classmethod
    def of(cls, dep: "Deployment") -> "DeploymentSnapshot":
        """Snapshot a live deployment (typically right after a scenario)."""
        responses = dep.console.responses if dep.console else []
        capabilities = dict(dep.console.capabilities) if dep.console else {
            "firewall": False, "router": False, "snmp": False,
            "honeypot": False}
        blocked: List[int] = []
        if dep.firewall is not None:
            blocked += [addr.value for _, addr in dep.firewall.block_requests]
        if dep.router is not None:
            blocked += [addr.value for _, addr in dep.router.block_requests]
        return cls(
            facts=dep.facts,
            inline_latency_s=dep.inline_latency_s,
            sensor_failure_modes=tuple(sorted(
                {s.failure_mode for s in dep.sensors},
                key=lambda m: m.value)),
            console_present=dep.console is not None,
            capabilities=capabilities,
            fired_actions=tuple(sorted({r.action for r in responses},
                                       key=lambda a: a.value)),
            correlating=any(getattr(a, "correlation", False)
                            for a in dep.analyzers),
            notification_channels=len(dep.monitor.channels),
            notifications_total=len(dep.monitor.notifications),
            has_filter_path=(dep.firewall is not None
                             or dep.router is not None),
            filter_blocked_sources=tuple(blocked),
        )


class Deployment:
    """A product deployed on the testbed, ready to receive traffic.

    The harness feeds every monitored packet through :meth:`ingest`; the
    deployment routes it to its network pipeline (tap semantics) and/or to
    the destination host's agents (host-delivery semantics).
    """

    def __init__(
        self,
        engine: Engine,
        facts: ProductFacts,
        monitor: Monitor,
        pipeline: Optional[IdsPipeline] = None,
        host_agents: Optional[List[HostAgent]] = None,
        console: Optional[ManagementConsole] = None,
        inline_latency_s: float = 0.0,
        testbed: Optional[LanTestbed] = None,
        analyzers: Optional[list] = None,
    ) -> None:
        if pipeline is None and not host_agents:
            raise ConfigurationError("deployment needs a pipeline or host agents")
        self.engine = engine
        self.facts = facts
        self.monitor = monitor
        self.pipeline = pipeline
        self.analyzers = (list(analyzers) if analyzers is not None
                          else (list(pipeline.analyzers) if pipeline else []))
        self.host_agents = list(host_agents or [])
        self.console = console
        self.inline_latency_s = float(inline_latency_s)
        self.testbed = testbed
        self._agent_hosts: Dict[int, HostAgent] = {
            agent.host.address.value: agent for agent in self.host_agents}
        self.ingested = 0

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.facts.name

    @property
    def sensors(self) -> List[Sensor]:
        return self.pipeline.sensors if self.pipeline is not None else []

    @property
    def firewall(self) -> Optional[Firewall]:
        return self.console.firewall if self.console else None

    @property
    def router(self) -> Optional[RouterInterface]:
        return self.console.router if self.console else None

    # ------------------------------------------------------------------
    def ingest(self, pkt: Packet) -> None:
        """One monitored packet crosses the protected network."""
        self.ingested += 1
        if self.pipeline is not None:
            self.pipeline.ingest(pkt)
        if self._agent_hosts:
            agent = self._agent_hosts.get(pkt.dst.value)
            if agent is not None:
                agent.host.receive(pkt)

    @property
    def trainable(self) -> bool:
        """Whether :meth:`train_on` has a detector to train."""
        return self.pipeline is not None and self.pipeline.trainable

    def train_on(self, trace: Trace,
                 baselines: Optional[Dict[float, AnomalyBaseline]] = None,
                 ) -> None:
        """Train and freeze the pipeline's detectors on a benign trace
        (see :meth:`IdsPipeline.train_on` for ``baselines``)."""
        if self.pipeline is not None:
            self.pipeline.train_on(trace, baselines)

    def freeze(self) -> None:
        if self.pipeline is not None:
            self.pipeline.freeze()

    # ------------------------------------------------------------------
    @property
    def packets_dropped(self) -> int:
        return self.pipeline.packets_dropped if self.pipeline else 0

    @property
    def packets_processed(self) -> int:
        return self.pipeline.packets_processed if self.pipeline else 0

    @property
    def crash_count(self) -> int:
        return self.pipeline.crash_count if self.pipeline else 0

    def snapshot(self) -> DeploymentSnapshot:
        """Picklable summary of everything the scoring layer reads."""
        return DeploymentSnapshot.of(self)


class Product:
    """Base for product definitions: facts plus a deployment factory."""

    facts: ProductFacts

    def deploy(self, engine: Engine, testbed: LanTestbed) -> Deployment:
        raise NotImplementedError

    @property
    def name(self) -> str:
        return self.facts.name
