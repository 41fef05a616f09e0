"""Tests for the sensor capacity/overload/failure model and detectors."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.address import IPv4Address
from repro.net.packet import Packet, Protocol
from repro.ids.alert import Detection, Severity
from repro.ids.hybrid import HybridDetector
from repro.ids.sensor import (
    AnomalyDetector,
    FailureMode,
    Sensor,
    SignatureDetector,
)
from repro.sim.engine import Engine

ATT = IPv4Address("198.18.0.1")
TGT = IPv4Address("10.0.0.5")


class NullDetector:
    """Detector that never fires; isolates the capacity model."""

    sensitivity = 0.5

    def process(self, pkt, now):
        return []

    def reset(self):
        pass


class FixedDetector:
    """Detector that always fires once."""

    sensitivity = 0.5

    def process(self, pkt, now):
        return [("test-cat", Severity.MEDIUM, 0.9, "")]

    def reset(self):
        pass


def pkt(payload=None, payload_len=None, **kw):
    kw.setdefault("src", ATT)
    kw.setdefault("dst", TGT)
    return Packet(payload=payload, payload_len=payload_len, **kw)


class TestCostModel:
    def test_header_only_cost_ignores_payload(self):
        s = Sensor(Engine(), "s", NullDetector(), per_byte_ops=0.0,
                   header_ops=100.0)
        assert s.packet_cost_ops(pkt(payload_len=5000)) == 100.0
        assert not s.deep_inspection

    def test_deep_cost_scales_with_bytes(self):
        s = Sensor(Engine(), "s", NullDetector(), header_ops=100.0,
                   per_byte_ops=2.0, parse_ops=0.0)
        assert s.packet_cost_ops(pkt(payload_len=500)) == 100.0 + 1000.0

    def test_parse_cost_only_for_protocol_content(self):
        s = Sensor(Engine(), "s", NullDetector(), header_ops=0.0,
                   per_byte_ops=1.0, parse_ops=5000.0)
        http = pkt(payload=b"GET / HTTP/1.0\r\n\r\n")
        rand = pkt(payload=b"\x8f\x13\x99" * 6)
        assert s.packet_cost_ops(http) == len(http.payload) + 5000.0
        assert s.packet_cost_ops(rand) == len(rand.payload)

    def test_logical_payload_no_parse_cost(self):
        s = Sensor(Engine(), "s", NullDetector(), header_ops=0.0,
                   per_byte_ops=1.0, parse_ops=5000.0)
        assert s.packet_cost_ops(pkt(payload_len=100)) == 100.0


class TestOverload:
    def test_processes_within_capacity(self):
        eng = Engine()
        s = Sensor(eng, "s", NullDetector(), ops_rate=1e6, header_ops=100.0,
                   per_byte_ops=0.0)
        for i in range(100):
            eng.schedule_at(i * 0.01, s.ingest, pkt())
        eng.run()
        assert s.processed == 100
        assert s.dropped_overload == 0

    def test_drops_when_backlog_exceeds_bound(self):
        eng = Engine()
        # each packet takes 10 ms; queue bound 50 ms -> at most ~6 in flight
        s = Sensor(eng, "s", NullDetector(), ops_rate=1e4, header_ops=100.0,
                   per_byte_ops=0.0, max_queue_delay_s=0.05,
                   lethal_drop_rate=None)
        for _ in range(100):
            s.ingest(pkt())
        eng.run()
        assert s.dropped_overload > 0
        assert s.processed + s.dropped_overload == 100
        assert s.processed > 0

    def test_utilization(self):
        eng = Engine()
        s = Sensor(eng, "s", NullDetector(), ops_rate=1e4, header_ops=100.0,
                   per_byte_ops=0.0)
        for i in range(50):
            eng.schedule_at(i * 0.1, s.ingest, pkt())
        eng.run(until=5.0)
        assert s.busy_ops == pytest.approx(50 * 100.0)

    def test_bad_config(self):
        with pytest.raises(ConfigurationError):
            Sensor(Engine(), "s", NullDetector(), ops_rate=0)
        with pytest.raises(ConfigurationError):
            Sensor(Engine(), "s", NullDetector(), max_queue_delay_s=0)


class TestFailureModes:
    def _flood(self, sensor, eng, n=4000, rate=20000.0):
        for i in range(n):
            eng.schedule_at(i / rate, sensor.ingest, pkt())
        eng.run()

    def _overloadable(self, eng, mode):
        return Sensor(eng, "s", NullDetector(), ops_rate=1e4, header_ops=100.0,
                      per_byte_ops=0.0, max_queue_delay_s=0.02,
                      lethal_drop_rate=1000.0, failure_mode=mode,
                      reboot_time_s=10.0, restart_time_s=0.5)

    def test_hang_stays_down_silently(self):
        eng = Engine()
        s = self._overloadable(eng, FailureMode.HANG)
        errors = []
        s.set_error_sink(lambda msg, t: errors.append(msg))
        self._flood(s, eng)
        assert s.crashes == 1
        assert not s.up
        assert errors == []
        assert s.dropped_down > 0

    def test_restart_recovers_and_reports(self):
        eng = Engine()
        s = self._overloadable(eng, FailureMode.RESTART)
        errors = []
        s.set_error_sink(lambda msg, t: errors.append((msg, t)))
        self._flood(s, eng)
        eng.run(until=eng.now + 1.0)
        assert s.crashes >= 1
        assert s.up  # recovered
        assert errors and "failed" in errors[0][0]

    def test_reboot_recovers_slowly_reports_after(self):
        eng = Engine()
        s = self._overloadable(eng, FailureMode.REBOOT)
        errors = []
        s.set_error_sink(lambda msg, t: errors.append((msg, t)))
        self._flood(s, eng)
        crash_time = eng.now
        eng.run(until=crash_time + 11.0)
        assert s.up
        assert errors and "recovered" in errors[0][0]

    def test_lethal_disabled(self):
        eng = Engine()
        s = Sensor(eng, "s", NullDetector(), ops_rate=1e4, header_ops=100.0,
                   per_byte_ops=0.0, max_queue_delay_s=0.02,
                   lethal_drop_rate=None)
        self._flood(s, eng)
        assert s.crashes == 0
        assert s.up


class TestDetectionEmission:
    def test_detections_carry_ground_truth(self):
        eng = Engine()
        s = Sensor(eng, "s", FixedDetector())
        got = []
        s.add_sink(got.append)
        s.ingest(pkt(attack_id="atk-1"))
        s.ingest(pkt())
        eng.run()
        assert len(got) == 2
        assert got[0].truth_attack_id == "atk-1"
        assert got[1].truth_attack_id is None
        assert all(isinstance(d, Detection) for d in got)
        assert s.detections_emitted == 2

    def test_round_robin_across_sinks(self):
        eng = Engine()
        s = Sensor(eng, "s", FixedDetector())
        a, b = [], []
        s.add_sink(a.append)
        s.add_sink(b.append)
        for _ in range(4):
            s.ingest(pkt())
        eng.run()
        assert len(a) == 2 and len(b) == 2


class TestDetectorAdapters:
    def test_signature_detector_default_ruleset(self):
        d = SignatureDetector(sensitivity=0.5)
        hits = d.process(pkt(dport=80, payload=b"GET /cgi-bin/phf?x HTTP/1.0\r\n"), 0.0)
        assert any(cat == "cgi-exploit" for cat, *_ in hits)

    def test_signature_detector_sensitivity_propagates(self):
        d = SignatureDetector(sensitivity=0.3)
        assert d.engine.sensitivity == 0.3
        d = SignatureDetector(engine=d.engine, sensitivity=0.8)
        assert d.engine.sensitivity == 0.8

    @staticmethod
    def _train(d):
        benign = pkt(proto=Protocol.UDP, sport=7100, dport=7000,
                     payload=b"\x00" * 64)
        for i in range(20):
            d.train(benign, float(i))
        d.freeze()

    @staticmethod
    def _dual_evil():
        """A packet that trips both engines: shellcode marker (signature)
        on a UDP service never seen in training (anomaly new-service)."""
        from repro.attacks.exploits import OVERFLOW_MARKER
        return pkt(proto=Protocol.UDP, sport=2500, dport=9999,
                   payload=OVERFLOW_MARKER)

    def test_anomaly_detector_train_freeze_process(self):
        d = AnomalyDetector(sensitivity=0.6)
        self._train(d)
        hits = d.process(pkt(proto=Protocol.UDP, sport=2500, dport=9999), 0.0)
        assert any(cat.startswith("anomaly-") for cat, *_ in hits)

    def test_hybrid_parallel_unions(self):
        d = HybridDetector(mode="parallel", sensitivity=0.6)
        self._train(d)
        cats = {cat for cat, *_ in d.process(self._dual_evil(), 0.0)}
        assert "overflow-exploit" in cats                     # signature half
        assert any(c.startswith("anomaly-") for c in cats)    # anomaly half

    def test_hybrid_series_short_circuits(self):
        d = HybridDetector(mode="series", sensitivity=0.6)
        self._train(d)
        cats = {cat for cat, *_ in d.process(self._dual_evil(), 0.0)}
        assert "overflow-exploit" in cats
        assert not any(c.startswith("anomaly-") for c in cats)

    def test_hybrid_sensitivity_shared(self):
        d = HybridDetector(sensitivity=0.4)
        assert d.signature.engine.sensitivity == 0.4
        assert d.anomaly.engine.sensitivity == 0.4
        d = HybridDetector(d.signature, d.anomaly, sensitivity=0.7)
        assert d.signature.engine.sensitivity == 0.7
        assert d.anomaly.engine.sensitivity == 0.7

    def test_hybrid_bad_mode(self):
        with pytest.raises(ConfigurationError):
            HybridDetector(mode="both")
