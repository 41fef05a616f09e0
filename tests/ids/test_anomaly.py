"""Tests for the anomaly engine: baseline learning and behavioural detection."""

import numpy as np
import pytest

from repro.attacks import (
    IcmpTunnel,
    NovelExploit,
    PortScan,
    SynFlood,
    TrustAbuse,
)
from repro.errors import ConfigurationError
from repro.net.address import IPv4Address, Subnet
from repro.ids.anomaly import AnomalyEngine
from repro.ids.alert import Severity
from repro.traffic.profiles import ClusterProfile

ATT = IPv4Address("198.18.0.1")


def make_trained_engine(sensitivity=0.5, seed=1, duration=30.0, nodes=None):
    nodes = nodes or list(Subnet("10.0.0.0/24").hosts(4))
    engine = AnomalyEngine(sensitivity=sensitivity)
    trace = ClusterProfile(nodes).generate(duration, np.random.default_rng(seed))
    for t, pkt in trace:
        engine.train(pkt, t)
    engine.freeze()
    return engine, nodes


def run_attack(engine, attack, seed=9):
    trace, _ = attack.generate(0.0, np.random.default_rng(seed))
    features = set()
    for t, pkt in trace:
        for feature, score in engine.inspect(pkt, t):
            features.add(feature)
            assert 0.0 <= score <= 1.0
    return features


class TestLifecycle:
    def test_inspect_before_freeze_raises(self):
        engine = AnomalyEngine()
        from repro.net.packet import Packet
        with pytest.raises(ConfigurationError):
            engine.inspect(Packet(src=ATT, dst=ATT), 0.0)

    def test_train_after_freeze_raises(self):
        engine, _ = make_trained_engine()
        from repro.net.packet import Packet
        with pytest.raises(ConfigurationError):
            engine.train(Packet(src=ATT, dst=ATT), 0.0)

    def test_sensitivity_threshold_monotone(self):
        lo = AnomalyEngine(sensitivity=0.1).threshold
        hi = AnomalyEngine(sensitivity=0.9).threshold
        assert lo > hi

    def test_sensitivity_bounds(self):
        with pytest.raises(ConfigurationError):
            AnomalyEngine(sensitivity=1.1)

    def test_severity_ladder(self):
        assert AnomalyEngine.severity_for(0.95) is Severity.HIGH
        assert AnomalyEngine.severity_for(0.8) is Severity.MEDIUM
        assert AnomalyEngine.severity_for(0.5) is Severity.LOW


class TestDetection:
    def test_baseline_traffic_is_mostly_clean(self):
        engine, nodes = make_trained_engine(sensitivity=0.5)
        fresh = ClusterProfile(nodes).generate(10.0, np.random.default_rng(77))
        detections = 0
        for t, pkt in fresh:
            detections += len(engine.inspect(pkt, t))
        # same distribution as training: false-alarm rate well under 1%
        assert detections / max(len(fresh), 1) < 0.01

    def test_detects_port_scan_fanout(self):
        engine, nodes = make_trained_engine()
        features = run_attack(engine, PortScan(ATT, nodes[0], ports=range(1, 400),
                                               rate_pps=500))
        assert "fanout" in features or "rate" in features

    def test_detects_syn_flood_rate(self):
        engine, nodes = make_trained_engine()
        features = run_attack(engine, SynFlood(nodes[0], rate_pps=5000,
                                               duration_s=1.0))
        # spoofed sources spread per-src rate, but flood still trips
        # new-service / fanout / rate on aggregate
        assert features  # detected by at least one feature

    def test_detects_novel_exploit(self):
        engine, nodes = make_trained_engine(sensitivity=0.6)
        features = run_attack(engine, NovelExploit(ATT, nodes[0]))
        assert "new-service" in features or "entropy" in features

    def test_detects_icmp_tunnel(self):
        engine, nodes = make_trained_engine(sensitivity=0.6)
        outside = IPv4Address("198.18.0.50")
        features = run_attack(engine, IcmpTunnel(nodes[1], outside,
                                                 total_bytes=8192, chunk=512))
        assert "icmp-size" in features or "entropy" in features

    def test_trust_abuse_token_novelty(self):
        # the insider case: only detectable via application-protocol fluency
        engine, nodes = make_trained_engine(sensitivity=0.8)
        features = run_attack(engine, TrustAbuse(nodes[1], nodes[0]))
        assert "token" in features

    def test_trust_abuse_missed_at_low_sensitivity(self):
        engine, nodes = make_trained_engine(sensitivity=0.1)
        features = run_attack(engine, TrustAbuse(nodes[1], nodes[0]))
        assert "token" not in features

    def test_sensitivity_monotone_in_detections(self):
        results = {}
        for s in (0.2, 0.8):
            engine, nodes = make_trained_engine(sensitivity=s)
            trace, _ = PortScan(ATT, nodes[0], ports=range(1, 300),
                                rate_pps=400).generate(
                0.0, np.random.default_rng(5))
            count = 0
            for t, pkt in trace:
                count += len(engine.inspect(pkt, t))
            results[s] = count
        assert results[0.8] >= results[0.2]

