"""Weighted score computation (Figure 5).

    S_j = sum_{i=1..n_j} (U_ij * W_ij)

where ``S_j`` is the weighted overall score for metric class ``j``,
``U_ij`` the unweighted (discrete 0-4) score for metric ``i`` of class ``j``
and ``W_ij`` a real-valued weight.  "Any consistent numeric system of
weights can be used ... Negative weights may also be used to help
distinguish where a feature is actually counterproductive" (section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ScorecardError
from .metric import MetricClass
from .scorecard import Scorecard

__all__ = ["WeightedResult", "weighted_scores", "rank_products"]


@dataclass(frozen=True)
class WeightedResult:
    """Weighted outcome for one product."""

    product: str
    class_scores: Mapping[MetricClass, float]   # S_j per class
    total: float
    #: metrics that carried non-zero weight but had no recorded score
    unscored_weighted: Tuple[str, ...] = ()


def weighted_scores(
    scorecard: Scorecard,
    weights: Mapping[str, float],
    products: Optional[Sequence[str]] = None,
    strict: bool = True,
) -> List[WeightedResult]:
    """Compute the Figure-5 weighted scores for each product.

    Parameters
    ----------
    scorecard:
        The completed score matrix.
    weights:
        Metric name -> real weight (typically from
        :func:`repro.core.weighting.derive_weights`).  Metrics absent from
        the mapping carry weight 0.
    products:
        Subset to evaluate (default: every registered product).
    strict:
        When True, a metric with non-zero weight but no recorded score
        raises :class:`ScorecardError`; when False, it is skipped and
        reported in :attr:`WeightedResult.unscored_weighted`.
    """
    for name in weights:
        scorecard.catalog.get(name)  # validates metric names
    product_list = list(products) if products is not None else list(scorecard.products)
    results: List[WeightedResult] = []
    for product in product_list:
        if product not in scorecard.products:
            raise ScorecardError(f"unknown product {product!r}")
        per_class: Dict[MetricClass, float] = {c: 0.0 for c in MetricClass}
        missing: List[str] = []
        for metric in scorecard.catalog:
            weight = weights.get(metric.name, 0.0)
            if weight == 0.0:
                continue
            entry = scorecard.get(product, metric.name)
            if entry is None:
                if strict:
                    raise ScorecardError(
                        f"product {product!r} missing score for weighted "
                        f"metric {metric.name!r}")
                missing.append(metric.name)
                continue
            per_class[metric.metric_class] += entry.score * weight
        total = sum(per_class.values())
        results.append(WeightedResult(
            product=product, class_scores=dict(per_class), total=total,
            unscored_weighted=tuple(missing)))
    return results


def rank_products(results: Sequence[WeightedResult]) -> List[WeightedResult]:
    """Sort by total weighted score, best first (stable on ties)."""
    return sorted(results, key=lambda r: -r.total)
