"""Consistency checks between product facts and the observer's scales.

A typo in a fact string would silently crash (or skew) the open-source
scoring; these tests pin every ordinal fact of every product to the
observer's accepted vocabulary, and check cross-field coherence.
"""

import dataclasses

import pytest

from repro.eval.observer import _ORDINAL, score_open_source
from repro.products import (AafidProduct, ManhuntProduct, NidProduct,
                            RealSecureProduct)
from repro.products.base import ProductFacts


def all_products():
    """The standard evaluation field: one instance of each product."""
    return [NidProduct(), RealSecureProduct(), ManhuntProduct(),
            AafidProduct()]

_FACT_FIELDS_WITH_SCALES = [
    "remote_management", "install_complexity", "policy_maintenance",
    "license", "outsourced", "docs", "filter_generation", "admin_effort",
    "support", "training", "adjustable_sensitivity", "data_pool_select",
    "multi_sensor", "load_balancing", "interoperability",
]


@pytest.mark.parametrize("product", all_products(), ids=lambda p: p.name)
class TestFactsVocabulary:
    def test_ordinal_fields_use_known_values(self, product):
        for field in _FACT_FIELDS_WITH_SCALES:
            value = getattr(product.facts, field)
            assert value in _ORDINAL[field], (
                f"{product.name}.{field}={value!r} not in scale "
                f"{sorted(_ORDINAL[field])}")

    def test_detection_and_scope_values(self, product):
        assert product.facts.detection in ("signature", "anomaly", "hybrid")
        assert product.facts.scope in ("network", "host", "both")

    def test_fraction_fields_bounded(self, product):
        f = product.facts
        assert 0.0 <= f.host_based_fraction <= 1.0
        assert 0.0 <= f.monitored_host_cpu_fraction <= 1.0
        assert f.network_based_fraction == pytest.approx(
            1.0 - f.host_based_fraction)

    def test_open_source_scoring_never_fails(self, product):
        scores = score_open_source(product.facts)
        assert all(0 <= s <= 4 for s, _ in scores.values())

    def test_scope_coherent_with_fractions(self, product):
        f = product.facts
        if f.scope == "network":
            assert f.host_based_fraction == 0.0
        elif f.scope == "host":
            assert f.host_based_fraction == 1.0
        else:
            assert 0.0 < f.host_based_fraction < 1.0


class TestFactsDataclass:
    def test_facts_frozen(self):
        facts = all_products()[0].facts
        with pytest.raises(dataclasses.FrozenInstanceError):
            facts.docs = "bad"  # type: ignore[misc]
