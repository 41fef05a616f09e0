"""Tests for the measurement experiments (throughput, latency, overhead,
accuracy sweep) and the EER locator."""

import math

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.eval.accuracy import equal_error_rate, run_accuracy, sensitivity_sweep
from repro.eval.latency import measure_induced_latency, timeliness_from_accuracy
from repro.eval.overhead import logging_level_overhead, measure_host_overhead
from repro.eval.testbed import EvalTestbed
from repro.eval.throughput import make_load_trace, probe_rate, report_from_probes
from repro.ids.host import LoggingLevel
from repro.net.address import IPv4Address
from repro.products import AafidProduct, ManhuntProduct, NidProduct

DST = IPv4Address("10.0.0.1")


def throughput_report(factory, name, rates_pps, duration_s):
    """Derive the load metrics the way the battery does: one probe per rate."""
    return report_from_probes(name, "http", [
        probe_rate(factory(), float(r), duration_s=duration_s)
        for r in rates_pps])


class TestLoadTrace:
    def test_rate_and_duration(self):
        rng = np.random.default_rng(1)
        trace = make_load_trace(rng, 1000.0, 2.0, DST, payload_mode="http")
        assert len(trace) == 2000
        assert trace[-1].time - trace[0].time <= 2.0

    def test_payload_modes(self):
        rng = np.random.default_rng(1)
        http = make_load_trace(rng, 100, 0.5, DST, payload_mode="http")
        rnd = make_load_trace(rng, 100, 0.5, DST, payload_mode="random")
        logical = make_load_trace(rng, 100, 0.5, DST, payload_mode="logical")
        assert all(r.packet.payload.startswith((b"GET", b"POST", b"HEAD"))
                   for r in http)
        assert all(r.packet.payload is not None for r in rnd)
        assert all(r.packet.payload is None and r.packet.payload_len == 400
                   for r in logical)

    def test_benign_ground_truth(self):
        rng = np.random.default_rng(1)
        trace = make_load_trace(rng, 100, 0.5, DST)
        assert sum(1 for _, p in trace if p.attack_id) == 0

    def test_validation(self):
        rng = np.random.default_rng(1)
        with pytest.raises(MeasurementError):
            make_load_trace(rng, 0, 1.0, DST)
        with pytest.raises(MeasurementError):
            make_load_trace(rng, 10, 1.0, DST, payload_mode="weird")

    @pytest.mark.parametrize("rate, duration", [
        (math.nan, 1.0), (10.0, math.nan), (math.inf, 1.0), (10.0, math.inf),
        (-math.inf, 1.0), (1e200, 1e200)])
    def test_validation_non_finite(self, rate, duration):
        with pytest.raises(MeasurementError, match="finite"):
            make_load_trace(np.random.default_rng(1), rate, duration, DST)

    @pytest.mark.parametrize("mode", ["http", "random", "logical"])
    def test_validation_negative_payload_size(self, mode):
        with pytest.raises(MeasurementError, match="payload_size"):
            make_load_trace(np.random.default_rng(1), 10, 1.0, DST,
                            payload_mode=mode, payload_size=-5)

    @pytest.mark.parametrize("pool", [0, -3])
    def test_validation_empty_src_pool(self, pool):
        with pytest.raises(MeasurementError, match="src_pool"):
            make_load_trace(np.random.default_rng(1), 10, 1.0, DST,
                            src_pool=pool)

    @pytest.mark.parametrize("mode", ["http", "random", "logical"])
    @pytest.mark.parametrize("size", [0, 7, 108, 1500])
    def test_exact_payload_size(self, mode, size):
        trace = make_load_trace(np.random.default_rng(1), 100, 0.5, DST,
                                payload_mode=mode, payload_size=size)
        assert len(trace) == 50
        for rec in trace:
            assert rec.packet.payload_len == size
            if mode != "logical":
                assert len(rec.packet.payload) == size

    def test_http_bodies_are_shared(self):
        # 10 paths x 3 agents: packets share the distinct bodies
        trace = make_load_trace(np.random.default_rng(1), 2000, 1.0, DST)
        assert len({id(r.packet.payload) for r in trace}) <= 30


class TestThroughput:
    def test_low_rate_zero_loss(self):
        probe = probe_rate(NidProduct(), 200.0, duration_s=0.5)
        assert probe.dropped_packets == 0
        assert not probe.crashed
        assert probe.processed_packets == probe.offered_packets

    def test_overload_drops(self):
        probe = probe_rate(NidProduct(), 50_000.0, duration_s=0.5)
        assert probe.dropped_packets > 0
        assert 0 < probe.loss_ratio <= 1.0

    def test_report_shape(self):
        report = throughput_report(
            NidProduct, "sim-nid", rates_pps=(500, 4000, 32000),
            duration_s=0.4)
        assert report.zero_loss_pps >= 500
        assert report.system_throughput_pps > 0
        assert len(report.probes) == 3
        # probes are sorted by rate
        rates = [p.offered_pps for p in report.probes]
        assert rates == sorted(rates)

    def test_lethal_dose_observed_for_fragile_product(self):
        report = throughput_report(
            NidProduct, "sim-nid", rates_pps=(1000, 64000), duration_s=1.0)
        assert report.lethal_dose_pps == 64000

    def test_resilient_product_no_lethal_dose(self):
        report = throughput_report(
            ManhuntProduct, "sim-manhunt", rates_pps=(1000, 16000),
            duration_s=0.4)
        assert report.lethal_dose_pps is None

    def test_validation(self):
        with pytest.raises(MeasurementError):
            report_from_probes("x", "http", [])


class TestPayloadRealismEffect:
    """Lesson 1: random flood data under-loads a content-inspecting IDS."""

    def test_deep_sensor_realistic_payloads_cost_more(self):
        rate = 8000.0
        http = probe_rate(NidProduct(), rate, duration_s=0.5,
                          payload_mode="http", seed=3)
        rnd = probe_rate(NidProduct(), rate, duration_s=0.5,
                         payload_mode="random", seed=3)
        # protocol-parseable content takes the expensive parse path
        assert http.loss_ratio > rnd.loss_ratio

    def test_header_only_sensor_insensitive_to_content(self):
        # ManHunt's flow sensors barely touch payload: loss ratios match
        rate = 40000.0
        http = probe_rate(ManhuntProduct(), rate, duration_s=0.3,
                          payload_mode="http", seed=3)
        rnd = probe_rate(ManhuntProduct(), rate, duration_s=0.3,
                         payload_mode="random", seed=3)
        assert abs(http.loss_ratio - rnd.loss_ratio) < 0.05


class TestLatencyAndOverhead:
    def test_passive_product_zero_induced_latency(self):
        tb = EvalTestbed(NidProduct(), n_hosts=3, train_duration_s=0)
        report = measure_induced_latency(tb.deployment)
        assert report.induced_latency_s == pytest.approx(0.0, abs=1e-9)

    def test_inline_product_positive_latency(self):
        tb = EvalTestbed(ManhuntProduct(), n_hosts=3, train_duration_s=0)
        report = measure_induced_latency(tb.deployment)
        assert report.induced_latency_s == pytest.approx(200e-6, rel=0.1)

    def test_logging_level_overhead_bands(self):
        nominal = logging_level_overhead(LoggingLevel.NOMINAL, observe_s=5.0)
        c2 = logging_level_overhead(LoggingLevel.C2, observe_s=5.0)
        assert 0.03 <= nominal <= 0.05          # paper: 3-5 %
        assert c2 == pytest.approx(0.20, abs=0.01)  # paper: ~20 %

    def test_host_overhead_measured_on_deployment(self):
        tb = EvalTestbed(AafidProduct(), n_hosts=3, train_duration_s=0)
        report = measure_host_overhead(tb.deployment, observe_s=3.0)
        assert report.monitored_hosts == 3
        assert report.mean_host_cpu_fraction == pytest.approx(0.20, abs=0.02)

    def test_no_agents_zero_overhead(self):
        tb = EvalTestbed(NidProduct(), n_hosts=3, train_duration_s=0)
        report = measure_host_overhead(tb.deployment, observe_s=1.0)
        assert report.mean_host_cpu_fraction == 0.0

    def test_timeliness_from_empty_accuracy(self):
        from repro.eval.ground_truth import AccuracyResult
        res = AccuracyResult(product="p", transactions=10, actual={"a"},
                             detected=set(), missed={"a"}, false_alarms=0,
                             alerts_total=0)
        report = timeliness_from_accuracy(res)
        assert math.isinf(report.mean_report_delay_s)
        assert report.attacks_reported == 0


class TestEqualErrorRate:
    def test_crossing_located(self):
        s = np.array([0.0, 0.5, 1.0])
        fpr = np.array([0.0, 0.1, 0.4])
        fnr = np.array([0.4, 0.1, 0.0])
        point = equal_error_rate(s, fpr, fnr)
        assert point is not None
        assert point[0] == pytest.approx(0.5)
        assert point[1] == pytest.approx(0.1)

    def test_interpolated_crossing(self):
        s = np.array([0.0, 1.0])
        fpr = np.array([0.0, 0.2])
        fnr = np.array([0.2, 0.0])
        point = equal_error_rate(s, fpr, fnr)
        assert point[0] == pytest.approx(0.5)
        assert point[1] == pytest.approx(0.1)

    def test_no_crossing(self):
        s = np.array([0.0, 1.0])
        assert equal_error_rate(s, np.array([0.0, 0.1]),
                                np.array([0.5, 0.3])) is None

    def test_single_point(self):
        assert equal_error_rate(np.array([0.5]), np.array([0.1]),
                                np.array([0.1])) is None

    def test_endpoint_equality(self):
        s = np.array([0.0, 1.0])
        point = equal_error_rate(s, np.array([0.0, 0.2]),
                                 np.array([0.5, 0.2]))
        assert point == (1.0, pytest.approx(0.2))


class TestAccuracyRuns:
    def test_run_accuracy_basic(self):
        res = run_accuracy(lambda s: NidProduct(sensitivity=s), 0.5,
                           duration_s=40.0, n_hosts=4, include_dos=False)
        assert res.transactions > 0
        assert res.detected  # signature IDS catches known attacks
        res.check_invariants()

    def test_sweep_monotone_shape(self):
        sweep = sensitivity_sweep(
            lambda s: ManhuntProduct(sensitivity=s), "mh",
            sensitivities=(0.1, 0.6, 1.0), duration_s=40.0, n_hosts=4)
        # FNR non-increasing, FPR non-decreasing across the sweep ends
        assert sweep.fnr[0] >= sweep.fnr[-1]
        assert sweep.fpr[-1] >= sweep.fpr[0]

    def test_sweep_validation(self):
        with pytest.raises(MeasurementError):
            sensitivity_sweep(lambda s: NidProduct(sensitivity=s), "x",
                              sensitivities=())
