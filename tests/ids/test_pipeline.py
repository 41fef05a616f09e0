"""Integration tests for the assembled IDS pipeline (Figure 1 end-to-end)."""

import numpy as np
import pytest

from repro.attacks import CgiProbe, PortScan
from repro.errors import CardinalityError, ConfigurationError
from repro.net.address import IPv4Address, Subnet
from repro.ids.analyzer import Analyzer
from repro.ids.console import ManagementConsole
from repro.ids.loadbalancer import HashBalancer
from repro.ids.monitor import Monitor
from repro.ids.pipeline import IdsPipeline
from repro.ids.response import Firewall, SnmpTrapReceiver
from repro.ids.sensor import Sensor, SignatureDetector
from repro.sim.engine import Engine
from repro.traffic.profiles import ClusterProfile

ATT = IPv4Address("198.18.0.1")


def make_pipeline(eng, n_sensors=2, separated=False, console=True, **sensor_kw):
    sensor_kw.setdefault("per_byte_ops", 2.0)
    sensor_kw.setdefault("lethal_drop_rate", None)
    sensors = [Sensor(eng, f"s{i}", SignatureDetector(sensitivity=0.5),
                      **sensor_kw)
               for i in range(n_sensors)]
    analyzers = [Analyzer(eng, "a0", analysis_delay_s=0.01)]
    monitor = Monitor(eng, "m0")
    balancer = HashBalancer(eng, "lb", sensors) if n_sensors > 1 else None
    con = None
    if console:
        con = ManagementConsole(eng, "mgr", firewall=Firewall(eng),
                                snmp=SnmpTrapReceiver(eng))
    return IdsPipeline(eng, "test-ids", sensors, analyzers, monitor,
                       balancer=balancer, console=con,
                       separated=separated).wire()


class TestWiring:
    def test_wire_validates_ok(self):
        eng = Engine()
        p = make_pipeline(eng)
        assert p._wired and len(p.sensors) == 2

    def test_multiple_sensors_need_balancer(self):
        eng = Engine()
        sensors = [Sensor(eng, f"s{i}", SignatureDetector()) for i in range(2)]
        with pytest.raises(ConfigurationError, match="load balancer"):
            IdsPipeline(eng, "x", sensors, [Analyzer(eng, "a")],
                        Monitor(eng, "m"))

    def test_ingest_before_wire_rejected(self):
        eng = Engine()
        sensors = [Sensor(eng, "s", SignatureDetector())]
        p = IdsPipeline(eng, "x", sensors, [Analyzer(eng, "a")],
                        Monitor(eng, "m"))
        from repro.net.packet import Packet
        with pytest.raises(ConfigurationError):
            p.ingest(Packet(src=ATT, dst=ATT))

    def test_wire_idempotent(self):
        eng = Engine()
        p = make_pipeline(eng)
        assert p.wire() is p


class TestEndToEnd:
    def test_attack_produces_alert_and_response(self):
        eng = Engine()
        p = make_pipeline(eng, n_sensors=2)
        scan = PortScan(ATT, IPv4Address("10.0.0.5"), ports=range(1, 300),
                        rate_pps=500)
        trace, _ = scan.generate(0.0, np.random.default_rng(1))
        trace.replay(eng, p.ingest)
        eng.run()
        assert p.monitor.alert_count >= 1
        cats = {a.category for a in p.monitor.alerts}
        assert "portscan" in cats
        # MEDIUM portscan alerts trigger operator notification
        assert p.monitor.notifications

    def test_critical_attack_triggers_firewall_block(self):
        eng = Engine()
        p = make_pipeline(eng, n_sensors=1)
        from repro.attacks import BufferOverflowExploit
        exploit = BufferOverflowExploit(ATT, IPv4Address("10.0.0.5"))
        trace, _ = exploit.generate(0.0, np.random.default_rng(1))
        trace.replay(eng, p.ingest)
        eng.run()
        assert ATT.value in p.console.firewall._blocked

    def test_benign_traffic_no_alerts(self):
        eng = Engine()
        p = make_pipeline(eng, n_sensors=2)
        nodes = list(Subnet("10.0.0.0/24").hosts(4))
        trace = ClusterProfile(nodes).generate(5.0, np.random.default_rng(2))
        trace.replay(eng, p.ingest)
        eng.run()
        assert p.monitor.alert_count == 0
        assert p.packets_processed == len(trace)


class TestSeparationModel:
    def _run_cgi(self, p, eng):
        probe = CgiProbe(ATT, IPv4Address("10.0.0.5"))
        trace, _ = probe.generate(0.0, np.random.default_rng(3))
        trace.replay(eng, p.ingest)
        eng.run()

    def test_separated_accounts_network_overhead(self):
        eng = Engine()
        p = make_pipeline(eng, n_sensors=1, separated=True)
        self._run_cgi(p, eng)
        assert p.network_overhead_bytes > 0
        assert p.monitor.alert_count >= 1

    def test_combined_no_network_overhead(self):
        eng = Engine()
        p = make_pipeline(eng, n_sensors=1, separated=False)
        self._run_cgi(p, eng)
        assert p.network_overhead_bytes == 0
        assert p.monitor.alert_count >= 1

    def test_combined_charges_sensor_budget(self):
        eng1, eng2 = Engine(), Engine()
        combined = make_pipeline(eng1, n_sensors=1, separated=False)
        separated = make_pipeline(eng2, n_sensors=1, separated=True)
        self._run_cgi(combined, eng1)
        self._run_cgi(separated, eng2)
        assert combined.sensors[0].busy_ops > separated.sensors[0].busy_ops


class TestTraining:
    def test_train_on_benign_trace(self):
        from repro.ids.hybrid import HybridDetector

        eng = Engine()
        sensors = [Sensor(eng, "s0", HybridDetector(sensitivity=0.5),
                          lethal_drop_rate=None)]
        p = IdsPipeline(eng, "x", sensors, [Analyzer(eng, "a0")],
                        Monitor(eng, "m0")).wire()
        nodes = list(Subnet("10.0.0.0/24").hosts(4))
        benign = ClusterProfile(nodes).generate(10.0, np.random.default_rng(4))
        assert p.train_on(benign) == 1
        p.freeze()
        # engine usable after freeze
        benign.replay(eng, p.ingest)
        eng.run()
        assert p.packets_processed == len(benign)

    def test_stats_aggregation(self):
        eng = Engine()
        p = make_pipeline(eng, n_sensors=2)
        assert p.packets_dropped == 0
        assert p.crash_count == 0
        assert all(s.up for s in p.sensors)
