"""Tests for analyzer (primary/secondary analysis) and monitor/policy."""

import pytest

from repro.errors import ConfigurationError
from repro.net.address import IPv4Address
from repro.ids.alert import Alert, Detection, Severity
from repro.ids.analyzer import Analyzer
from repro.ids.monitor import Monitor
from repro.ids.policy import PolicyRule, ResponseAction, SecurityPolicy
from repro.sim.engine import Engine

SRC = IPv4Address("198.18.0.1")
DST = IPv4Address("10.0.0.5")


def det(time=0.0, category="portscan", severity=Severity.MEDIUM, score=0.9,
        src=SRC, truth=None):
    return Detection(time=time, sensor="s0", category=category, src=src,
                     dst=DST, score=score, severity=severity,
                     truth_attack_id=truth)


class TestAnalyzerPrimary:
    def test_emits_alert_for_detection(self):
        eng = Engine()
        a = Analyzer(eng, "a0", analysis_delay_s=0.0)
        got = []
        a.set_sink(got.append)
        a.receive(det(truth="atk-1"))
        eng.run()
        assert len(got) == 1
        alert = got[0]
        assert isinstance(alert, Alert)
        assert alert.category == "portscan"
        assert alert.truth_attack_id == "atk-1"

    def test_dedup_within_window(self):
        eng = Engine()
        a = Analyzer(eng, "a0", dedup_window_s=5.0, analysis_delay_s=0.0)
        got = []
        a.set_sink(got.append)
        for i in range(10):
            a.receive(det(time=i * 0.1))
        eng.run()
        assert len(got) == 1
        assert a.detections_received == 10

    def test_new_window_new_alert(self):
        eng = Engine()
        a = Analyzer(eng, "a0", dedup_window_s=5.0, analysis_delay_s=0.0)
        got = []
        a.set_sink(got.append)
        a.receive(det(time=0.0))
        a.receive(det(time=10.0))
        eng.run()
        assert len(got) == 2

    def test_distinct_categories_not_deduped(self):
        eng = Engine()
        a = Analyzer(eng, "a0", analysis_delay_s=0.0)
        got = []
        a.set_sink(got.append)
        a.receive(det(category="portscan"))
        a.receive(det(category="syn-flood"))
        eng.run()
        assert len(got) == 2

    def test_burst_promotes_severity(self):
        eng = Engine()
        a = Analyzer(eng, "a0", burst_promote=5, analysis_delay_s=0.0)
        got = []
        a.set_sink(got.append)
        for i in range(5):
            a.receive(det(time=i * 0.01, severity=Severity.MEDIUM))
        eng.run()
        assert len(got) == 2  # initial alert + promoted burst alert
        assert got[-1].severity == Severity.HIGH
        assert got[-1].detections == 5

    def test_analysis_delay_applied(self):
        eng = Engine()
        a = Analyzer(eng, "a0", analysis_delay_s=0.5)
        got = []
        a.set_sink(lambda alert: got.append((eng.now, alert)))
        a.receive(det(time=0.0))
        eng.run()
        assert got[0][0] == pytest.approx(0.5)
        assert got[0][1].time == pytest.approx(0.5)

    def test_validation(self):
        eng = Engine()
        with pytest.raises(ConfigurationError):
            Analyzer(eng, "a", dedup_window_s=0)
        with pytest.raises(ConfigurationError):
            Analyzer(eng, "a", burst_promote=1)


class TestAnalyzerSecondary:
    def test_correlation_links_same_source(self):
        eng = Engine()
        a = Analyzer(eng, "a0", correlation=True, analysis_delay_s=0.0)
        got = []
        a.set_sink(got.append)
        a.receive(det(category="portscan"))
        a.receive(det(category="cgi-exploit"))
        a.receive(det(category="brute-force"))
        eng.run()
        cids = {alert.correlation_id for alert in got}
        assert len(cids) == 1
        cid = cids.pop()
        assert cid is not None
        # the campaign spans all three categories
        assert {alert.category for alert in got} == {
            "portscan", "cgi-exploit", "brute-force"}

    def test_different_sources_different_campaigns(self):
        eng = Engine()
        a = Analyzer(eng, "a0", correlation=True, analysis_delay_s=0.0)
        got = []
        a.set_sink(got.append)
        a.receive(det(src=SRC))
        a.receive(det(src=IPv4Address("198.18.0.2"), category="x"))
        eng.run()
        assert len({alert.correlation_id for alert in got}) == 2

    def test_correlation_disabled(self):
        eng = Engine()
        a = Analyzer(eng, "a0", correlation=False, analysis_delay_s=0.0)
        got = []
        a.set_sink(got.append)
        a.receive(det())
        eng.run()
        assert got[0].correlation_id is None

    def test_storage_accounting_bounded(self):
        eng = Engine()
        a = Analyzer(eng, "a0", history_limit=5, analysis_delay_s=0.0)
        a.set_sink(lambda alert: None)
        for i in range(10):
            a.receive(det(time=float(i) * 20))
        assert a.history_records == 5
        assert a.history_evictions == 5
        assert a.storage_bytes == 5 * 96


class TestSecurityPolicy:
    def test_first_match_wins(self):
        policy = SecurityPolicy(rules=[
            PolicyRule(Severity.HIGH, (ResponseAction.FIREWALL_BLOCK,)),
            PolicyRule(Severity.LOW, (ResponseAction.NOTIFY,)),
        ])
        high = Alert(time=0, analyzer="a", category="x", src=SRC, dst=DST,
                     severity=Severity.HIGH, confidence=0.9)
        low = Alert(time=0, analyzer="a", category="x", src=SRC, dst=DST,
                    severity=Severity.LOW, confidence=0.9)
        assert policy.actions_for(high) == (ResponseAction.FIREWALL_BLOCK,)
        assert policy.actions_for(low) == (ResponseAction.NOTIFY,)

    def test_default_actions_when_no_match(self):
        policy = SecurityPolicy(rules=[PolicyRule(Severity.HIGH, ())])
        info = Alert(time=0, analyzer="a", category="x", src=SRC, dst=DST,
                     severity=Severity.INFO, confidence=0.5)
        assert policy.actions_for(info) == (ResponseAction.LOG_ONLY,)

    def test_category_prefix_filter(self):
        rule = PolicyRule(Severity.LOW, (ResponseAction.NOTIFY,),
                          category_prefix="anomaly-")
        anom = Alert(time=0, analyzer="a", category="anomaly-rate", src=SRC,
                     dst=DST, severity=Severity.MEDIUM, confidence=0.9)
        sig = Alert(time=0, analyzer="a", category="portscan", src=SRC,
                    dst=DST, severity=Severity.MEDIUM, confidence=0.9)
        assert rule.matches(anom)
        assert not rule.matches(sig)

    def test_default_policy_shape(self):
        policy = SecurityPolicy.default()
        crit = Alert(time=0, analyzer="a", category="syn-flood", src=SRC,
                     dst=DST, severity=Severity.CRITICAL, confidence=1.0)
        actions = policy.actions_for(crit)
        assert ResponseAction.FIREWALL_BLOCK in actions
        assert ResponseAction.NOTIFY in actions


class TestMonitor:
    def _alert(self, severity=Severity.MEDIUM, category="portscan", t=0.0):
        return Alert(time=t, analyzer="a0", category=category, src=SRC,
                     dst=DST, severity=severity, confidence=0.9)

    def test_notifies_per_policy(self):
        eng = Engine()
        m = Monitor(eng, "m0", notify_delay_s=0.1)
        m.receive(self._alert(Severity.MEDIUM))
        m.receive(self._alert(Severity.INFO))  # below policy floor
        eng.run()
        assert len(m.notifications) == 1
        assert m.notifications[0].time == pytest.approx(0.1)
        assert m.alert_count == 2

    def test_notification_channels(self):
        eng = Engine()
        m = Monitor(eng, "m0", channels=("console", "pager"))
        m.receive(self._alert(Severity.HIGH))
        eng.run()
        assert {n.channel for n in m.notifications} == {"console", "pager"}

    def test_responder_invoked_for_response_actions(self):
        eng = Engine()
        m = Monitor(eng, "m0")
        responses = []
        m.set_responder(lambda action, alert: responses.append(action))
        m.receive(self._alert(Severity.CRITICAL))
        eng.run()
        assert ResponseAction.FIREWALL_BLOCK in responses
        assert ResponseAction.SNMP_TRAP in responses

    def test_no_responder_graceful(self):
        eng = Engine()
        m = Monitor(eng, "m0")
        m.receive(self._alert(Severity.CRITICAL))
        eng.run()  # must not raise

    def test_error_reports(self):
        eng = Engine()
        m = Monitor(eng, "m0")
        m.report_error("sensor s0 failed", 3.0)
        assert m.error_reports == [(3.0, "sensor s0 failed")]

    def test_validation(self):
        eng = Engine()
        with pytest.raises(ConfigurationError):
            Monitor(eng, "m", notify_delay_s=-1)
        with pytest.raises(ConfigurationError):
            Monitor(eng, "m", channels=())
