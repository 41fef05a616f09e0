"""Tests for the dependability experiment (clean vs faulted runs)."""

import math
import pickle

import pytest

from repro.eval.dependability import (
    DependabilityReport,
    FaultedRun,
    measure_dependability,
    run_scenario_under_faults,
    score_dependability,
)
from repro.eval.ground_truth import AccuracyResult
from repro.eval.latency import timeliness_from_accuracy
from repro.eval.parallel import WorkUnit, unit_key
from repro.eval.runner import EvaluationOptions, measure_scenario
from repro.eval.testbed import EvalTestbed
from repro.products import (
    AafidProduct,
    ManhuntProduct,
    NidProduct,
    RealSecureProduct,
)
from repro.sim.faults import named_plan

SMALL = dict(n_hosts=3, seed=0, train_duration_s=3.0)
DURATION = 8.0


def _clean_run(product_cls):
    testbed = EvalTestbed(product_cls(), **SMALL)
    scenario = testbed.make_scenario(duration_s=DURATION)
    return testbed.run_scenario(scenario)


def _faulted_run(product_cls, plan):
    testbed = EvalTestbed(product_cls(), **SMALL)
    scenario = testbed.make_scenario(duration_s=DURATION)
    return run_scenario_under_faults(testbed, scenario, plan)


class TestEmptyPlanIdentity:
    """The no-fault acceptance gate: routing a run through the injector
    with an empty plan must be byte-identical to today's direct path."""

    @pytest.mark.parametrize("product_cls", [NidProduct, RealSecureProduct,
                                             ManhuntProduct, AafidProduct])
    def test_transcript_byte_identical(self, product_cls):
        direct = _clean_run(product_cls)
        via_injector, injector = _faulted_run(product_cls,
                                              named_plan("none"))
        assert pickle.dumps(direct) == pickle.dumps(via_injector)
        assert injector.availability() == 1.0


class TestCrashRecoverPlan:
    """The reference-plan acceptance gate: measurable degradation."""

    @pytest.fixture(scope="class")
    def report(self):
        options = EvaluationOptions(
            scenario_duration_s=DURATION, **SMALL)
        return measure_dependability(
            ManhuntProduct, options, named_plan("crash-recover"),
            severities=(0.5, 1.0))

    def test_availability_below_one(self, report):
        assert report.availability < 1.0
        assert 0.0 <= report.availability <= 1.0

    def test_nonzero_timeliness_delta(self, report):
        assert report.timeliness_delta_s != 0.0

    def test_runs_severity_ascending(self, report):
        severities = [run.severity for run in report.runs]
        assert severities == sorted(severities) == [0.5, 1.0]

    def test_degradation_counters_show_activity(self, report):
        counters = report.runs[-1].counters
        assert counters["faults_applied"] == 3
        assert counters["sensor_injected_failures"] >= 1
        # the analyzer crash window drops detections with accounting
        assert counters["analyzer_dropped_down"] > 0

    def test_scoring_produces_both_metrics(self, report):
        scores = score_dependability(report)
        assert set(scores) == {"Availability Under Faults",
                               "Graceful Degradation"}
        for score, evidence, raw in scores.values():
            assert 0 <= score <= 4
            assert "crash-recover" in evidence
            assert math.isfinite(raw)


class TestDropRollup:
    """Every packet the balancer receives is forwarded or counted as lost,
    and the deployment roll-up includes every balancer loss."""

    def test_cascade_balancer_losses_reach_rollup(self):
        testbed = EvalTestbed(ManhuntProduct(), n_hosts=3, seed=0,
                              train_duration_s=4.0)
        scenario = testbed.make_scenario(duration_s=10.0)
        run_scenario_under_faults(testbed, scenario, named_plan("cascade"))
        deployment = testbed.deployment
        balancer = deployment.pipeline.balancer
        assert balancer.received == (balancer.forwarded + balancer.dropped
                                     + balancer.dropped_down
                                     + balancer.shed_no_sensor)
        lost = (balancer.dropped + balancer.dropped_down
                + balancer.shed_no_sensor)
        assert balancer.dropped_down > 0 and balancer.shed_no_sensor > 0
        assert lost == 846
        sensor_drops = sum(s.dropped_overload + s.dropped_down
                           for s in deployment.pipeline.sensors)
        assert deployment.packets_dropped == lost + sensor_drops


class TestRunnerWiring:
    def test_measure_scenario_populates_dependability(self):
        options = EvaluationOptions(
            scenario_duration_s=DURATION, faults="crash-recover",
            fault_severities=(1.0,), **SMALL)
        measurement = measure_scenario(NidProduct, options)
        report = measurement.dependability
        assert isinstance(report, DependabilityReport)
        assert report.plan == "crash-recover"
        assert report.availability < 1.0

    def test_measure_scenario_default_is_none(self):
        options = EvaluationOptions(scenario_duration_s=DURATION, **SMALL)
        measurement = measure_scenario(NidProduct, options)
        assert measurement.dependability is None

    def test_scenario_cache_key_tracks_fault_plan(self):
        unit = WorkUnit(index=0, product="p", kind="scenario")
        clean = EvaluationOptions()
        faulted = EvaluationOptions(faults="crash-recover")
        assert unit_key(unit, clean) != unit_key(unit, faulted)

    def test_rate_cache_key_ignores_fault_plan(self):
        # rate probes never run faults; their cached results stay sharable
        unit = WorkUnit(index=0, product="p", kind="rate", rate_pps=500.0)
        clean = EvaluationOptions()
        faulted = EvaluationOptions(faults="crash-recover")
        assert unit_key(unit, clean) == unit_key(unit, faulted)


class TestReportAlgebra:
    def _report(self, runs, baseline_notified=1.0, baseline_delay=1.0):
        return DependabilityReport(
            product="p", plan="t", seed=0,
            baseline_detection_ratio=1.0,
            baseline_notified_ratio=baseline_notified,
            baseline_mean_report_delay_s=baseline_delay,
            runs=tuple(runs))

    def _run(self, severity, notified, delay=1.0, availability=0.9):
        return FaultedRun(severity=severity, availability=availability,
                          detection_ratio=notified, notified_ratio=notified,
                          mean_report_delay_s=delay, counters={})

    def test_empty_runs(self):
        report = self._report([])
        assert report.availability == 1.0
        assert report.degradation_slope == 0.0
        assert report.timeliness_delta_s == 0.0

    def test_slope_fits_through_origin(self):
        report = self._report([self._run(0.5, 0.9), self._run(1.0, 0.8)])
        # least squares through (0.5, 0.1), (1.0, 0.2): slope exactly 0.2
        assert report.degradation_slope == pytest.approx(0.2)

    def test_silenced_product_is_infinite_delta(self):
        report = self._report([self._run(1.0, 0.0, delay=float("nan"))])
        assert math.isinf(report.timeliness_delta_s)

    def test_never_notifying_baseline_is_zero_delta(self):
        report = self._report(
            [self._run(1.0, 0.0, delay=float("nan"))],
            baseline_notified=0.0, baseline_delay=float("nan"))
        assert report.timeliness_delta_s == 0.0


class TestTimelinessAudit:
    """Never-notified attacks must not contaminate the timeliness means."""

    def _result(self, notification_delay, missed):
        return AccuracyResult(
            product="p", transactions=10,
            actual={"a1", "a2", "a3"},
            detected={"a1", "a2", "a3"} - set(missed),
            missed=set(missed), false_alarms=0, alerts_total=3,
            notification_delay=notification_delay)

    def test_missed_attack_placeholder_excluded(self):
        # a 0.0 placeholder for a missed attack must not drag the mean down
        result = self._result({"a1": 2.0, "a2": 4.0, "a3": 0.0},
                              missed=["a3"])
        report = timeliness_from_accuracy(result)
        assert report.mean_report_delay_s == pytest.approx(3.0)
        assert report.max_report_delay_s == pytest.approx(4.0)
        assert report.attacks_reported == 2

    def test_non_finite_delay_excluded(self):
        result = self._result({"a1": 2.0, "a2": float("inf")}, missed=[])
        report = timeliness_from_accuracy(result)
        assert report.mean_report_delay_s == pytest.approx(2.0)
        assert report.attacks_reported == 1

    def test_nothing_reported_is_infinite(self):
        result = self._result({"a1": float("inf")}, missed=["a2", "a3"])
        report = timeliness_from_accuracy(result)
        assert math.isinf(report.mean_report_delay_s)
        assert report.attacks_reported == 0
