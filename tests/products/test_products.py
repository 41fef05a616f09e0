"""Tests for the four simulated products and their deployments."""

import numpy as np
import pytest

from repro.attacks import (
    BufferOverflowExploit,
    NovelExploit,
    PortScan,
    TelnetBruteForce,
)
from repro.net.address import IPv4Address
from repro.net.topology import LanTestbed
from repro.products import (
    AafidProduct,
    ManhuntProduct,
    NidProduct,
    RealSecureProduct,
)
from repro.sim.engine import Engine
from repro.traffic.profiles import ClusterProfile

ATT = IPv4Address("198.18.0.1")
#: the standard evaluation field: one instance of each product
FIELD = [NidProduct(), RealSecureProduct(), ManhuntProduct(), AafidProduct()]


def deploy(product_cls, **kw):
    eng = Engine()
    tb = LanTestbed(eng, n_hosts=4)
    dep = product_cls(**kw).deploy(eng, tb)
    return eng, tb, dep


def train(dep, tb, eng, duration=20.0, seed=11):
    nodes = [h.address for h in tb.hosts]
    benign = ClusterProfile(nodes).generate(duration, np.random.default_rng(seed))
    dep.train_on(benign)
    dep.freeze()
    return benign


def run_attack(dep, eng, attack, seed=5, start=None):
    trace, rec = attack.generate(start if start is not None else eng.now,
                                 np.random.default_rng(seed))
    for t, pkt in trace:
        eng.schedule_at(max(t, eng.now), dep.ingest, pkt)
    eng.run()
    return rec


class TestFieldConsistency:
    def test_all_products_distinct_names(self):
        names = [p.name for p in FIELD]
        assert len(set(names)) == 4

    def test_facts_cover_detection_space(self):
        detections = {p.facts.detection for p in FIELD}
        assert {"signature", "anomaly", "hybrid"} <= detections
        scopes = {p.facts.scope for p in FIELD}
        assert {"network", "host", "both"} <= scopes

    @pytest.mark.parametrize("cls", [NidProduct, RealSecureProduct,
                                     ManhuntProduct, AafidProduct])
    def test_deploys_cleanly(self, cls):
        eng, tb, dep = deploy(cls)
        assert dep.monitor is not None
        assert dep.name.startswith("sim-")


class TestNid:
    def test_detects_known_exploit_and_blocks(self):
        eng, tb, dep = deploy(NidProduct)
        run_attack(dep, eng, BufferOverflowExploit(ATT, tb.hosts[0].address))
        assert dep.monitor.alert_count >= 1
        assert dep.firewall is not None
        assert ATT.value in dep.firewall._blocked

    def test_misses_novel_exploit(self):
        eng, tb, dep = deploy(NidProduct)
        run_attack(dep, eng, NovelExploit(ATT, tb.hosts[0].address))
        assert dep.monitor.alert_count == 0

    def test_no_host_footprint(self):
        eng, tb, dep = deploy(NidProduct)
        assert not dep.host_agents
        assert dep.facts.monitored_host_cpu_fraction == 0.0


class TestRealSecure:
    def test_network_and_host_visibility(self):
        eng, tb, dep = deploy(RealSecureProduct)
        run_attack(dep, eng, TelnetBruteForce(ATT, tb.hosts[1].address,
                                              attempts=80, rate_per_s=40))
        cats = {a.category for a in dep.monitor.alerts}
        assert "brute-force" in cats            # network signature
        assert "failed-login-storm" in cats     # host agent

    def test_host_agents_nominal_overhead(self):
        eng, tb, dep = deploy(RealSecureProduct)
        assert len(dep.host_agents) == len(tb.hosts)
        for agent in dep.host_agents:
            assert agent.host.cpu.consumer_average(agent.name) == (
                pytest.approx(0.04))

    def test_snmp_trap_on_high_severity(self):
        eng, tb, dep = deploy(RealSecureProduct)
        run_attack(dep, eng, BufferOverflowExploit(ATT, tb.hosts[0].address))
        assert dep.console.snmp is not None
        assert len(dep.console.snmp.traps) >= 1

    def test_session_consistent_balancing(self):
        eng, tb, dep = deploy(RealSecureProduct)
        assert dep.pipeline.balancer.strategy == "flow-hash"


class TestManhunt:
    def test_detects_novel_exploit_after_training(self):
        eng, tb, dep = deploy(ManhuntProduct, sensitivity=0.6)
        train(dep, tb, eng)
        run_attack(dep, eng, NovelExploit(ATT, tb.hosts[0].address))
        cats = {a.category for a in dep.monitor.alerts}
        assert any(c.startswith("anomaly-") for c in cats)

    def test_continuous_sensitivity(self):
        eng, tb, dep = deploy(ManhuntProduct, sensitivity=0.9)
        assert dep.facts.adjustable_sensitivity == "continuous"
        assert all(s.detector.engine.sensitivity == 0.9 for s in dep.sensors)

    def test_router_and_honeypot_capabilities(self):
        eng, tb, dep = deploy(ManhuntProduct)
        caps = dep.console.capabilities
        assert caps["router"] and caps["snmp"] and caps["honeypot"]
        assert not caps["firewall"]

    def test_dynamic_balancer_inline_latency(self):
        eng, tb, dep = deploy(ManhuntProduct)
        assert dep.pipeline.balancer.strategy == "dynamic"
        assert dep.inline_latency_s > 0


class TestAafid:
    def test_host_only_no_pipeline(self):
        eng, tb, dep = deploy(AafidProduct)
        assert dep.pipeline is None
        assert len(dep.host_agents) == len(tb.hosts)
        assert dep.console is None

    def test_c2_audit_overhead(self):
        eng, tb, dep = deploy(AafidProduct)
        for agent in dep.host_agents:
            assert agent.host.cpu.consumer_average(agent.name) == (
                pytest.approx(0.20))

    def test_catches_brute_force_on_host(self):
        eng, tb, dep = deploy(AafidProduct)
        run_attack(dep, eng, TelnetBruteForce(ATT, tb.hosts[2].address,
                                              attempts=40, rate_per_s=40))
        cats = {a.category for a in dep.monitor.alerts}
        assert "failed-login-storm" in cats

    def test_blind_to_network_scan(self):
        eng, tb, dep = deploy(AafidProduct)
        run_attack(dep, eng, PortScan(ATT, tb.hosts[0].address,
                                      ports=range(1, 300)))
        assert dep.monitor.alert_count == 0  # no network sensing

    def test_no_sensitivity_adjustment(self):
        eng, tb, dep = deploy(AafidProduct)
        assert dep.facts.adjustable_sensitivity == "none"
        assert dep.sensors == []

    def test_no_response_capability(self):
        eng, tb, dep = deploy(AafidProduct)
        run_attack(dep, eng, TelnetBruteForce(ATT, tb.hosts[2].address,
                                              attempts=40, rate_per_s=40))
        assert dep.firewall is None and dep.router is None
