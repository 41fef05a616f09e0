"""Tests for requirements, weight derivation (Fig 6) and scoring (Fig 5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catalog import default_catalog
from repro.core.metric import MetricClass, ObservationMethod
from repro.core.requirements import Requirement, RequirementSet
from repro.core.scorecard import Scorecard
from repro.core.scoring import rank_products, weighted_scores
from repro.core.weighting import derive_weights, figure6_example
from repro.errors import ScorecardError, WeightingError


class TestRequirementSet:
    def test_from_ordered_assigns_increasing_weights(self):
        rs = RequirementSet.from_ordered("t", [
            ("a", "least", ["Timeliness"]),
            ("b", "mid", ["Timeliness"]),
            ("c", "most", ["SNMP Interaction"]),
        ])
        assert [r.weight for r in rs] == [1.0, 2.0, 3.0]

    def test_from_ordered_ties_share_weight(self):
        rs = RequirementSet.from_ordered("t", [
            ("a", "least", []),
            [("b1", "tied", []), ("b2", "tied", [])],
            ("c", "most", []),
        ])
        weights = {r.name: r.weight for r in rs}
        assert weights == {"a": 1.0, "b1": 2.0, "b2": 2.0, "c": 3.0}

    def test_duplicate_names_rejected(self):
        rs = RequirementSet("t")
        rs.add(Requirement("a", "d", 1.0))
        with pytest.raises(WeightingError):
            rs.add(Requirement("a", "d", 2.0))

    def test_contributions_index(self):
        rs = RequirementSet("t", [
            Requirement("a", "d", 1.0, frozenset({"M1", "M2"})),
            Requirement("b", "d", 2.0, frozenset({"M2"})),
        ])
        contrib = rs.contributions()
        assert {r.name for r in contrib["M2"]} == {"a", "b"}
        assert {r.name for r in contrib["M1"]} == {"a"}


class TestDeriveWeights:
    def test_sum_of_contributing_requirements(self):
        rs = RequirementSet("t", [
            Requirement("a", "d", 1.0, frozenset({"M1", "M2"})),
            Requirement("b", "d", 2.5, frozenset({"M2"})),
        ])
        weights = derive_weights(rs)
        assert weights == {"M1": 1.0, "M2": 3.5}

    def test_figure6_example_reproduces_paper_numbers(self):
        _, weights = figure6_example()
        assert weights == {"M1": 3.0, "M2": 6.5, "M3": 5.0,
                           "M4": 0.0, "M5": 0.0, "M6": 8.0}

    def test_catalog_validation(self):
        catalog = default_catalog()
        rs = RequirementSet("t", [
            Requirement("a", "d", 1.0, frozenset({"Not A Metric"}))])
        with pytest.raises(WeightingError):
            derive_weights(rs, catalog)

    def test_catalog_fills_default_zero(self):
        catalog = default_catalog()
        rs = RequirementSet("t", [
            Requirement("a", "d", 2.0, frozenset({"Timeliness"}))])
        weights = derive_weights(rs, catalog)
        assert len(weights) == 52
        assert weights["Timeliness"] == 2.0
        assert weights["SNMP Interaction"] == 0.0

    @given(st.lists(st.tuples(
        st.floats(min_value=0.1, max_value=10, allow_nan=False),
        st.sets(st.sampled_from(["M1", "M2", "M3", "M4"]), max_size=4)),
        min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_property_monotone_adding_requirements(self, rows):
        """Adding a (positive-weight) requirement never lowers any weight."""
        reqs = [Requirement(f"r{i}", "d", w, frozenset(ms))
                for i, (w, ms) in enumerate(rows)]
        partial = derive_weights(RequirementSet("p", reqs[:-1]))
        full = derive_weights(RequirementSet("f", reqs))
        for metric, weight in partial.items():
            assert full.get(metric, 0.0) >= weight - 1e-12


class TestScorecard:
    @pytest.fixture
    def card(self):
        card = Scorecard(default_catalog())
        card.add_product("ids-a")
        card.add_product("ids-b")
        return card

    def test_set_and_get(self, card):
        card.set_score("ids-a", "Timeliness", 3,
                       evidence="avg 0.4s to notify", raw_value=0.4)
        entry = card.get("ids-a", "Timeliness")
        assert entry.score == 3
        assert entry.raw_value == 0.4
        assert card.score("ids-a", "Timeliness") == 3
        assert card.score("ids-b", "Timeliness") is None

    def test_duplicate_product_rejected(self, card):
        with pytest.raises(ScorecardError):
            card.add_product("ids-a")

    def test_unknown_product_rejected(self, card):
        with pytest.raises(ScorecardError):
            card.set_score("nope", "Timeliness", 2)

    def test_score_range_enforced(self, card):
        from repro.errors import ScoreValueError
        with pytest.raises(ScoreValueError):
            card.set_score("ids-a", "Timeliness", 5)

    def test_method_designation_enforced(self, card):
        # Timeliness is analysis-only
        with pytest.raises(ScorecardError):
            card.set_score("ids-a", "Timeliness", 2,
                           method=ObservationMethod.OPEN_SOURCE)

    def test_missing_and_complete(self, card):
        names = ["Timeliness", "SNMP Interaction"]
        assert card.missing("ids-a", names) == names
        card.set_score("ids-a", "Timeliness", 2)
        assert card.missing("ids-a", names) == ["SNMP Interaction"]
        card.set_score("ids-a", "SNMP Interaction", 4)
        assert card.missing("ids-a", names) == []


class TestWeightedScores:
    def _card(self):
        card = Scorecard(default_catalog())
        for product in ("A", "B"):
            card.add_product(product)
        card.set_score("A", "Timeliness", 4)
        card.set_score("A", "Distributed Management", 2)
        card.set_score("B", "Timeliness", 1)
        card.set_score("B", "Distributed Management", 4)
        return card

    def test_figure5_formula(self):
        card = self._card()
        weights = {"Timeliness": 2.0, "Distributed Management": 1.0}
        results = {r.product: r for r in weighted_scores(card, weights)}
        assert results["A"].class_scores[MetricClass.PERFORMANCE] == 8.0
        assert results["A"].class_scores[MetricClass.LOGISTICAL] == 2.0
        assert results["A"].total == 10.0
        assert results["B"].total == 2.0 + 4.0

    def test_negative_weights_supported(self):
        card = self._card()
        weights = {"Timeliness": -1.0}
        results = {r.product: r for r in weighted_scores(card, weights)}
        assert results["A"].total == -4.0
        assert results["B"].total == -1.0

    def test_strict_missing_raises(self):
        card = self._card()
        with pytest.raises(ScorecardError):
            weighted_scores(card, {"SNMP Interaction": 1.0})

    def test_lenient_missing_reported(self):
        card = self._card()
        results = weighted_scores(card, {"SNMP Interaction": 1.0},
                                  strict=False)
        assert results[0].unscored_weighted == ("SNMP Interaction",)
        assert results[0].total == 0.0

    def test_unknown_metric_in_weights(self):
        card = self._card()
        from repro.errors import UnknownMetricError
        with pytest.raises(UnknownMetricError):
            weighted_scores(card, {"Bogus": 1.0})

    def test_rank_products(self):
        card = self._card()
        weights = {"Timeliness": 2.0, "Distributed Management": 1.0}
        ranked = rank_products(weighted_scores(card, weights))
        assert [r.product for r in ranked] == ["A", "B"]

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=3,
                    max_size=3),
           st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                    min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_property_linearity(self, scores, ws):
        """S_j is linear: doubling all weights doubles every class score."""
        card = Scorecard(default_catalog())
        card.add_product("P")
        names = ["Timeliness", "Distributed Management", "System Throughput"]
        for name, score in zip(names, scores):
            card.set_score("P", name, score)
        weights = dict(zip(names, ws))
        double = {k: 2 * v for k, v in weights.items()}
        r1 = weighted_scores(card, weights)[0]
        r2 = weighted_scores(card, double)[0]
        assert r2.total == pytest.approx(2 * r1.total)
        for c in MetricClass:
            assert r2.class_scores[c] == pytest.approx(2 * r1.class_scores[c])


class TestProfilesAndReport:
    def test_profiles_map_to_real_metrics(self):
        from repro.core.profiles import (
            distributed_requirements,
            ecommerce_requirements,
            realtime_cluster_requirements,
        )
        catalog = default_catalog()
        for profile in (realtime_cluster_requirements(),
                        distributed_requirements(),
                        ecommerce_requirements()):
            weights = derive_weights(profile, catalog)  # validates names
            assert sum(1 for w in weights.values() if w > 0) >= 5

    def test_distributed_profile_emphasizes_fnr(self):
        from repro.core.profiles import distributed_requirements
        catalog = default_catalog()
        weights = derive_weights(distributed_requirements(), catalog)
        assert weights["Observed False Negative Ratio"] > \
            weights["Observed False Positive Ratio"]

    def test_realtime_profile_emphasizes_reaction(self):
        from repro.core.profiles import realtime_cluster_requirements
        catalog = default_catalog()
        weights = derive_weights(realtime_cluster_requirements(), catalog)
        for name in ("Timeliness", "Firewall Interaction",
                     "Router Interaction", "SNMP Interaction"):
            assert weights[name] == max(r.weight for r in
                                        realtime_cluster_requirements())

    def test_report_rendering(self):
        from repro.core.report import format_weighted_results
        card = Scorecard(default_catalog())
        card.add_product("A")
        card.set_score("A", "Timeliness", 3)
        results = weighted_scores(card, {"Timeliness": 1.0})
        out = format_weighted_results(results)
        assert "A" in out and "3.00" in out
