"""Tests for the signature engine and the shipped rule set."""

import numpy as np
import pytest

from repro.attacks import (
    BufferOverflowExploit,
    CgiProbe,
    HostSweep,
    NovelExploit,
    PortScan,
    SynFlood,
    TelnetBruteForce,
)
from repro.errors import ConfigurationError
from repro.net.address import IPv4Address
from repro.net.packet import Packet, Protocol, TcpFlags
from repro.ids.alert import Severity
from repro.ids.signature import (
    HeaderRule,
    PayloadPatternRule,
    SignatureEngine,
    ThresholdRule,
    default_ruleset,
)

ATT = IPv4Address("198.18.0.1")
TGT = IPv4Address("10.0.0.5")


@pytest.fixture
def rng():
    return np.random.default_rng(3)


def run_attack(engine, attack, rng):
    """Feed an attack's packets through the engine; return match categories."""
    trace, _ = attack.generate(0.0, rng)
    cats = set()
    for t, pkt in trace:
        for m in engine.inspect(pkt, t):
            cats.add(m.category)
    return cats


class TestRulePrimitives:
    def test_payload_pattern_needs_materialized_payload(self):
        rule = PayloadPatternRule("r", [b"evil"], category="x")
        hit = rule.match(Packet(src=ATT, dst=TGT, payload=b"so evil"), 0.0, 0.5)
        miss = rule.match(Packet(src=ATT, dst=TGT, payload_len=100), 0.0, 0.5)
        assert hit is not None and hit.category == "x"
        assert miss is None

    def test_payload_pattern_port_filter(self):
        rule = PayloadPatternRule("r", [b"evil"], ports=[80], category="x")
        on80 = Packet(src=ATT, dst=TGT, dport=80, payload=b"evil")
        on81 = Packet(src=ATT, dst=TGT, dport=81, payload=b"evil")
        assert rule.match(on80, 0.0, 0.5) is not None
        assert rule.match(on81, 0.0, 0.5) is None

    def test_payload_pattern_empty_patterns_rejected(self):
        with pytest.raises(ConfigurationError):
            PayloadPatternRule("r", [], category="x")

    def test_header_rule_flags_and_ports(self):
        rule = HeaderRule("r", proto=Protocol.TCP, dports=[23],
                          flags=TcpFlags.SYN, category="x")
        syn23 = Packet(src=ATT, dst=TGT, dport=23, flags=TcpFlags.SYN)
        ack23 = Packet(src=ATT, dst=TGT, dport=23, flags=TcpFlags.ACK)
        syn80 = Packet(src=ATT, dst=TGT, dport=80, flags=TcpFlags.SYN)
        assert rule.match(syn23, 0.0, 0.5) is not None
        assert rule.match(ack23, 0.0, 0.5) is None
        assert rule.match(syn80, 0.0, 0.5) is None

    def test_header_rule_predicate(self):
        rule = HeaderRule("r", predicate=lambda p: p.payload_len > 10, category="x")
        assert rule.match(Packet(src=ATT, dst=TGT, payload_len=11), 0.0, 0.5)
        assert rule.match(Packet(src=ATT, dst=TGT, payload_len=5), 0.0, 0.5) is None

    def test_threshold_rule_distinct_counting(self):
        rule = ThresholdRule("r", key_fn=lambda p: p.src.value,
                             value_fn=lambda p: p.dport,
                             threshold=3, window_s=10.0, category="scan")
        pkts = [Packet(src=ATT, dst=TGT, dport=d) for d in (1, 2, 2, 3)]
        hits = [rule.match(p, 0.0, 0.5) for p in pkts]
        # distinct ports: 1,2,2,3 -> fires when the 3rd distinct arrives
        assert hits[:3] == [None, None, None]
        assert hits[3] is not None

    def test_threshold_rule_fires_once_per_window(self):
        rule = ThresholdRule("r", key_fn=lambda p: p.src.value,
                             value_fn=lambda p: ThresholdRule.COUNT,
                             threshold=2, window_s=5.0, category="x")
        p = Packet(src=ATT, dst=TGT)
        results = [rule.match(p, float(t) * 0.1, 0.5) for t in range(10)]
        assert sum(r is not None for r in results) == 1
        # new window fires again
        assert any(rule.match(p, 10.0 + dt, 0.5) for dt in (0.0, 0.1))

    def test_threshold_sensitivity_scaling(self):
        rule = ThresholdRule("r", key_fn=lambda p: 1, value_fn=lambda p: 1,
                             threshold=40, category="x")
        assert rule.effective_threshold(0.5) == 40
        assert rule.effective_threshold(0.0) == 80
        assert rule.effective_threshold(1.0) == 20

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            ThresholdRule("r", key_fn=lambda p: 1, value_fn=lambda p: 1,
                          threshold=0, category="x")


class TestEngine:
    def test_sensitivity_bounds(self):
        engine = SignatureEngine([], sensitivity=0.5)
        with pytest.raises(ConfigurationError):
            engine.sensitivity = 1.5

    def test_min_sensitivity_gates_rules(self):
        rule = PayloadPatternRule("noisy", [b"x"], category="n",
                                  min_sensitivity=0.8)
        engine = SignatureEngine([rule], sensitivity=0.5)
        pkt = Packet(src=ATT, dst=TGT, payload=b"x")
        assert engine.inspect(pkt, 0.0) == []
        engine.sensitivity = 0.9
        assert len(engine.inspect(pkt, 0.0)) == 1


class TestDefaultRulesetDetection:
    """The shipped rules catch every known attack and miss the novel ones."""

    def setup_method(self):
        self.engine = SignatureEngine(default_ruleset(), sensitivity=0.5)

    def test_detects_port_scan(self, rng):
        cats = run_attack(self.engine, PortScan(ATT, TGT, ports=range(1, 200)), rng)
        assert "portscan" in cats

    def test_detects_host_sweep(self, rng):
        targets = [IPv4Address(f"10.0.0.{i}") for i in range(1, 20)]
        cats = run_attack(self.engine, HostSweep(ATT, targets), rng)
        assert "host-sweep" in cats

    def test_detects_syn_flood(self, rng):
        cats = run_attack(self.engine,
                          SynFlood(TGT, rate_pps=2000, duration_s=1.0), rng)
        assert "syn-flood" in cats

    def test_detects_overflow(self, rng):
        cats = run_attack(self.engine, BufferOverflowExploit(ATT, TGT), rng)
        assert "overflow-exploit" in cats

    def test_detects_cgi_probe(self, rng):
        cats = run_attack(self.engine, CgiProbe(ATT, TGT), rng)
        assert "cgi-exploit" in cats

    def test_detects_brute_force(self, rng):
        cats = run_attack(self.engine,
                          TelnetBruteForce(ATT, TGT, attempts=80, rate_per_s=50),
                          rng)
        assert "brute-force" in cats

    def test_misses_novel_exploit_at_default_sensitivity(self, rng):
        cats = run_attack(self.engine, NovelExploit(ATT, TGT), rng)
        assert cats == set()  # structurally blind to novel attacks

    def test_novel_exploit_odd_port_caught_at_high_sensitivity(self, rng):
        self.engine.sensitivity = 0.9
        cats = run_attack(self.engine, NovelExploit(ATT, TGT), rng)
        assert "suspicious-connection" in cats

    def test_header_only_ruleset_misses_payload_attacks(self, rng):
        engine = SignatureEngine(default_ruleset(payload_inspection=False),
                                 sensitivity=0.5)
        cats = run_attack(engine, BufferOverflowExploit(ATT, TGT), rng)
        assert "overflow-exploit" not in cats

    def test_benign_cluster_traffic_clean_at_default(self, rng):
        from repro.net.address import Subnet
        from repro.traffic.profiles import ClusterProfile

        nodes = list(Subnet("10.0.0.0/24").hosts(4))
        trace = ClusterProfile(nodes).generate(10.0, rng)
        matches = []
        for t, pkt in trace:
            matches.extend(self.engine.inspect(pkt, t))
        assert matches == []
