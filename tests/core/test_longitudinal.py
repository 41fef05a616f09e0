"""Tests for longitudinal re-evaluation across product versions."""

import pytest

from repro.core.catalog import default_catalog
from repro.core.longitudinal import EvaluationHistory, ScoreDelta
from repro.core.scorecard import Scorecard
from repro.errors import ScorecardError


def make_card(**scores):
    card = Scorecard(default_catalog())
    card.add_product("ids-x")
    for metric, score in scores.items():
        card.set_score("ids-x", metric.replace("_", " "), score)
    return card


@pytest.fixture
def history():
    h = EvaluationHistory("ids-x")
    h.add("1.0", "2001-10-01", make_card(Timeliness=2))
    h.add("2.0", "2002-03-01", make_card(Timeliness=4))
    return h


class TestHistory:
    def test_versions_in_order(self, history):
        assert [v for v, _ in history.weighted_trend({})] == ["1.0", "2.0"]
        assert len(history) == 2

    def test_add_requires_product(self):
        h = EvaluationHistory("other")
        with pytest.raises(ScorecardError):
            h.add("1.0", "2002-01-01", make_card())

    def test_unknown_version(self, history):
        with pytest.raises(ScorecardError):
            history.deltas("1.0", "9.9")


class TestDeltas:
    def test_changed_metric_reported(self, history):
        deltas = history.deltas("1.0", "2.0")
        names = {d.metric for d in deltas}
        assert "Timeliness" in names
        d = next(d for d in deltas if d.metric == "Timeliness")
        assert (d.before, d.after) == (2, 4)
        assert d.improvement and not d.regression

    def test_regression_detected(self):
        h = EvaluationHistory("ids-x")
        h.add("1.0", "t0", make_card(Timeliness=4))
        h.add("2.0", "t1", make_card(Timeliness=1))
        regs = h.regressions("1.0", "2.0")
        assert len(regs) == 1
        assert regs[0].regression

    def test_newly_scored_metric_is_a_delta(self):
        h = EvaluationHistory("ids-x")
        h.add("1.0", "t0", make_card())
        h.add("2.0", "t1", make_card(Timeliness=3))
        deltas = h.deltas("1.0", "2.0")
        d = next(d for d in deltas if d.metric == "Timeliness")
        assert d.before is None and d.after == 3
        assert not d.regression and not d.improvement

    def test_no_change_no_delta(self):
        h = EvaluationHistory("ids-x")
        h.add("1.0", "t0", make_card(Timeliness=3))
        h.add("1.1", "t1", make_card(Timeliness=3))
        assert h.deltas("1.0", "1.1") == []


class TestWeightedTrend:
    def test_trend_follows_customer_weights(self, history):
        trend = history.weighted_trend({"Timeliness": 2.0})
        assert trend == [("1.0", 4.0), ("2.0", 8.0)]

    def test_trend_indifferent_customer(self, history):
        # a customer who does not weight the changed metric sees no movement
        trend = history.weighted_trend({"SNMP Interaction": 1.0})
        assert trend == [("1.0", 0.0), ("2.0", 0.0)]
