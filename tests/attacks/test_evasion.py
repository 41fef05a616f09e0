"""Evasion tests: attacks engineered to sit outside default detectability.

These are deliberate *negative capability* tests: they pin down what the
shipped engines do NOT catch, so the detectability frontier is documented
behaviour rather than an accident.
"""

import numpy as np
import pytest

from repro.attacks import SlowPortScan
from repro.errors import ConfigurationError
from repro.ids.anomaly import AnomalyEngine
from repro.ids.signature import SignatureEngine, default_ruleset
from repro.net.address import IPv4Address, Subnet
from repro.traffic.profiles import ClusterProfile

ATT = IPv4Address("198.18.0.1")


def make_trained_anomaly(sensitivity):
    nodes = list(Subnet("10.0.0.0/24").hosts(4))
    engine = AnomalyEngine(sensitivity=sensitivity)
    trace = ClusterProfile(nodes).generate(30.0, np.random.default_rng(1))
    for t, pkt in trace:
        engine.train(pkt, t)
    engine.freeze()
    return engine, nodes


class TestSlowPortScan:
    def test_probe_pacing(self):
        scan = SlowPortScan(ATT, IPv4Address("10.0.0.5"),
                            ports=range(1, 11), probe_interval_s=30.0)
        trace, rec = scan.generate(0.0, np.random.default_rng(1))
        assert len(trace) == 10
        assert rec.end - rec.start >= 9 * 30.0 * 0.9
        assert rec.novel

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SlowPortScan(ATT, IPv4Address("10.0.0.5"), probe_interval_s=0)

    def test_evades_signature_thresholds_at_default(self):
        engine = SignatureEngine(default_ruleset(), sensitivity=0.5)
        scan = SlowPortScan(ATT, IPv4Address("10.0.0.5"),
                            ports=range(1, 65), probe_interval_s=30.0)
        trace, _ = scan.generate(0.0, np.random.default_rng(2))
        hits = []
        for t, pkt in trace:
            hits.extend(engine.inspect(pkt, t))
        # windowed portscan rule never accumulates enough distinct ports
        assert all(m.category != "portscan" for m in hits)

    def test_evades_anomaly_at_default(self):
        engine, nodes = make_trained_anomaly(sensitivity=0.5)
        scan = SlowPortScan(ATT, nodes[0], ports=range(1, 65),
                            probe_interval_s=30.0)
        trace, _ = scan.generate(0.0, np.random.default_rng(2))
        scores = []
        for t, pkt in trace:
            scores.extend(engine.inspect(pkt, t))
        # rate and fan-out features never trip at one probe / 30 s
        assert all(f not in ("rate", "fanout") for f, _ in scores)

    def test_fast_variant_is_caught_as_control(self):
        """Control: the same scan at speed IS caught -- the evasion is
        purely temporal."""
        from repro.attacks import PortScan
        engine = SignatureEngine(default_ruleset(), sensitivity=0.5)
        scan = PortScan(ATT, IPv4Address("10.0.0.5"), ports=range(1, 65),
                        rate_pps=100.0)
        trace, _ = scan.generate(0.0, np.random.default_rng(2))
        cats = set()
        for t, pkt in trace:
            cats.update(m.category for m in engine.inspect(pkt, t))
        assert "portscan" in cats
