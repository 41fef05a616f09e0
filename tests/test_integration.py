"""Cross-module integration tests: determinism, failure injection,
record/replay, and end-to-end response timing."""

import numpy as np
import pytest

from repro.attacks import BufferOverflowExploit, UdpFlood
from repro.eval.observer import score_measurements
from repro.eval.runner import (EvaluationOptions, assemble_evaluation,
                               measure_rate, measure_scenario)
from repro.eval.testbed import EvalTestbed, cluster_scenario
from repro.ids.alert import Severity
from repro.ids.policy import PolicyRule, ResponseAction, SecurityPolicy
from repro.net.address import IPv4Address, Subnet
from repro.net.link import Link
from repro.net.node import Switch
from repro.net.topology import LanTestbed
from repro.net.trace import Trace
from repro.products import ManhuntProduct, NidProduct
from repro.sim.engine import Engine
from repro.traffic.profiles import ClusterProfile

ATT = IPv4Address("198.18.0.1")


class TestDeterminism:
    def _run(self, product_cls, seed=7):
        testbed = EvalTestbed(product_cls(), n_hosts=4, seed=seed,
                              train_duration_s=15.0)
        scenario = testbed.make_scenario(duration_s=40.0, include_dos=False)
        result = testbed.run_scenario(scenario)
        alerts = [(a.time, a.category, str(a.src), a.severity)
                  for a in testbed.deployment.monitor.alerts]
        return result, alerts

    @staticmethod
    def _kinds(ids):
        # attack ids carry a process-global instance counter
        # ("portscan-3"); behaviour comparison strips it
        return {aid.rsplit("-", 1)[0] for aid in ids}

    def test_same_seed_identical_run(self):
        r1, a1 = self._run(NidProduct, seed=7)
        r2, a2 = self._run(NidProduct, seed=7)
        assert a1 == a2
        assert r1.false_positive_ratio == r2.false_positive_ratio
        assert r1.false_negative_ratio == r2.false_negative_ratio
        assert self._kinds(r1.detected) == self._kinds(r2.detected)
        assert self._kinds(r1.missed) == self._kinds(r2.missed)

    def test_same_seed_identical_anomaly_run(self):
        r1, a1 = self._run(ManhuntProduct, seed=7)
        r2, a2 = self._run(ManhuntProduct, seed=7)
        assert a1 == a2

    def test_different_seed_different_scenario(self):
        nodes = list(Subnet("10.0.0.0/24").hosts(4))
        s1 = cluster_scenario(nodes, duration_s=20.0, seed=1,
                              include_dos=False)
        nodes2 = list(Subnet("10.0.0.0/24").hosts(4))
        s2 = cluster_scenario(nodes2, duration_s=20.0, seed=2,
                              include_dos=False)
        assert [r.time for r in s1.trace] != [r.time for r in s2.trace]


class TestFailureInjection:
    def test_flood_crashes_fragile_sensor_and_creates_blind_window(self):
        """A lethal-dose flood takes the NID sensor down (cold reboot);
        an exploit during the blind window is missed, and the failure is
        only reported after recovery (the 'average' anchor)."""
        eng = Engine()
        lan = LanTestbed(eng, n_hosts=4)
        dep = NidProduct().deploy(eng, lan)
        target = lan.hosts[0].address
        rng = np.random.default_rng(5)

        # payload-bearing flood: deep inspection makes it CPU-lethal
        # (a bare SYN flood is header-only work and would not saturate)
        flood_trace, _ = UdpFlood(ATT, target, rate_pps=20_000,
                                  duration_s=1.0,
                                  payload_mode="random").generate(0.0, rng)
        exploit_trace, exploit_rec = BufferOverflowExploit(
            ATT, target).generate(3.0, rng)  # inside the 60 s reboot window

        for t, pkt in flood_trace:
            eng.schedule_at(t, dep.ingest, pkt)
        for t, pkt in exploit_trace:
            eng.schedule_at(t, dep.ingest, pkt)
        eng.run(until=10.0)

        sensor = dep.sensors[0]
        assert sensor.crashes >= 1
        assert not sensor.up                       # still rebooting
        assert sensor.dropped_down > 0             # blind window
        cats = {a.category for a in dep.monitor.alerts}
        assert "overflow-exploit" not in cats      # exploit slipped through
        assert dep.monitor.error_reports == []     # not reported yet

        eng.run(until=70.0)                        # reboot completes
        assert sensor.up
        assert any("recovered" in msg for _, msg in dep.monitor.error_reports)

    def test_restart_product_reports_failure_in_near_real_time(self):
        eng = Engine()
        lan = LanTestbed(eng, n_hosts=4)
        from repro.products import RealSecureProduct

        dep = RealSecureProduct().deploy(eng, lan)
        target = lan.hosts[0].address
        rng = np.random.default_rng(5)
        flood_trace, _ = UdpFlood(ATT, target, rate_pps=35_000,
                                  duration_s=1.0,
                                  payload_mode="random").generate(0.0, rng)
        for t, pkt in flood_trace:
            eng.schedule_at(t, dep.ingest, pkt)
        eng.run(until=10.0)
        assert dep.crash_count >= 1
        # RESTART mode: failure reported on the alert channel near the crash
        assert dep.monitor.error_reports
        report_time = dep.monitor.error_reports[0][0]
        assert report_time < 2.0
        # and all sensors are back up within seconds
        assert all(s.up for s in dep.sensors)


class TestRecordReplay:
    def test_recorded_tap_replays_to_same_detections(self):
        """Record site traffic at a SPAN tap, then replay the recording
        against a fresh deployment: same alerts (the section-4 'recorded
        traffic' workflow)."""
        # --- live run with a recorder on the tap --------------------------
        eng = Engine()
        recorder = Trace.recorder(eng, "site")
        switch = Switch(eng)
        switch.add_span(Link(eng, 1e9, 10e-6, 512 * 1024, sink=recorder))
        ingress = Link(eng, 1e9, 20e-6, 512 * 1024, sink=switch.receive)
        nodes = list(Subnet("10.0.0.0/24").hosts(4))
        background = ClusterProfile(nodes).generate(
            10.0, np.random.default_rng(3))
        attack_trace, _ = BufferOverflowExploit(ATT, nodes[0]).generate(
            4.0, np.random.default_rng(4))
        for t, pkt in Trace.merge([background, attack_trace]):
            eng.schedule_at(t, ingress.send, pkt)
        eng.run(until=15.0)
        assert len(recorder) > 0
        # labels survived the mirror
        assert any(p.attack_id for _, p in recorder.trace)

        # --- round-trip through the binary format -------------------------
        reloaded = Trace.from_bytes(recorder.trace.to_bytes())

        # --- replay against a product ------------------------------------
        def detect(trace):
            eng2 = Engine()
            lan2 = LanTestbed(eng2, n_hosts=4)
            dep = NidProduct().deploy(eng2, lan2)
            trace.replay(eng2, dep.ingest)
            eng2.run(until=trace[-1].time - trace[0].time + 5.0)
            return {a.category for a in dep.monitor.alerts}

        assert detect(recorder.trace) == detect(reloaded)
        assert "overflow-exploit" in detect(reloaded)

    def test_recorder_stop(self):
        eng = Engine()
        rec = Trace.recorder(eng)
        from repro.net.packet import Packet

        rec(Packet(src=ATT, dst=ATT))
        rec.stop()
        rec(Packet(src=ATT, dst=ATT))
        assert len(rec) == 1


class TestEndToEndResponse:
    def test_detection_to_firewall_block_latency(self):
        """Attack -> alert -> policy -> console -> firewall, with the
        near-real-time latency the real-time profile cares about."""
        eng = Engine()
        lan = LanTestbed(eng, n_hosts=4)
        dep = NidProduct().deploy(eng, lan)
        target = lan.hosts[0].address
        trace, rec = BufferOverflowExploit(ATT, target).generate(
            1.0, np.random.default_rng(1))
        trace.replay(eng, dep.ingest, start_at=1.0)
        eng.run(until=10.0)

        fw = dep.firewall
        assert ATT.value in fw._blocked
        block_req_time = fw.block_requests[0][0]
        # blocked within ~1 s of the attack's first packet
        assert block_req_time - rec.start < 1.0
        # response logged by the console
        assert any(r.action.value == "firewall-block"
                   for r in dep.console.responses)

    def test_policy_fires_router_block_and_honeypot_redirect(self):
        """A custom policy drives the router interface and the honeypot;
        the snapshot records both and Router Interaction scores 4."""
        class PolicyManhunt(ManhuntProduct):
            def deploy(self, engine, testbed):
                dep = super().deploy(engine, testbed)
                dep.monitor.policy = SecurityPolicy(rules=[PolicyRule(
                    Severity.CRITICAL, (ResponseAction.ROUTER_BLOCK,
                                        ResponseAction.HONEYPOT_REDIRECT))])
                return dep

        opts = EvaluationOptions(seed=0, n_hosts=3, scenario_duration_s=20.0,
                                 train_duration_s=4.0,
                                 throughput_probe_s=0.1)
        scenario = measure_scenario(PolicyManhunt, opts)
        snap = scenario.snapshot
        assert {ResponseAction.ROUTER_BLOCK,
                ResponseAction.HONEYPOT_REDIRECT} <= set(snap.fired_actions)
        assert ATT.value in snap.filter_blocked_sources
        probes = [measure_rate(PolicyManhunt, 500, opts)]
        bundle = assemble_evaluation(scenario, probes, opts).bundle
        score, evidence, _ = score_measurements(bundle)["Router Interaction"]
        assert score == 4
        assert "router-block" in evidence
