"""Tests for the M:M sensor/analyzer wiring and remaining pipeline paths."""

import numpy as np
import pytest

from repro.attacks import CgiProbe
from repro.ids.analyzer import Analyzer
from repro.ids.loadbalancer import HashBalancer
from repro.ids.monitor import Monitor
from repro.ids.pipeline import IdsPipeline
from repro.ids.sensor import Sensor, SignatureDetector
from repro.net.address import IPv4Address
from repro.sim.engine import Engine

ATT = IPv4Address("198.18.0.1")
TGT = IPv4Address("10.0.0.5")


def build_mm(eng, n_sensors=2, n_analyzers=3):
    sensors = [Sensor(eng, f"s{i}", SignatureDetector(sensitivity=0.5),
                      lethal_drop_rate=None) for i in range(n_sensors)]
    analyzers = [Analyzer(eng, f"a{i}", analysis_delay_s=0.0,
                          dedup_window_s=0.001)
                 for i in range(n_analyzers)]
    monitor = Monitor(eng, "m0")
    balancer = HashBalancer(eng, "lb", sensors) if n_sensors > 1 else None
    return IdsPipeline(eng, "mm", sensors, analyzers, monitor,
                       balancer=balancer).wire()


class TestManyToMany:
    def test_detections_spread_over_analyzers(self):
        eng = Engine()
        pipeline = build_mm(eng, n_sensors=1, n_analyzers=3)
        probe = CgiProbe(ATT, TGT)  # five sessions -> multiple detections
        trace, _ = probe.generate(0.0, np.random.default_rng(1))
        trace.replay(eng, pipeline.ingest)
        eng.run()
        # round-robin M:M: more than one analyzer did work
        busy = [a for a in pipeline.analyzers if a.detections_received > 0]
        assert len(busy) >= 2
        # and everything converged on the single monitor (M:1)
        assert pipeline.monitor.alert_count == sum(
            a.alerts_emitted for a in pipeline.analyzers)

    def test_all_alerts_reach_single_monitor_from_two_sensors(self):
        eng = Engine()
        pipeline = build_mm(eng, n_sensors=2, n_analyzers=2)
        probe = CgiProbe(ATT, TGT)
        trace, _ = probe.generate(0.0, np.random.default_rng(2))
        trace.replay(eng, pipeline.ingest)
        eng.run()
        assert pipeline.monitor.alert_count >= 1

