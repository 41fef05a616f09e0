"""Textual rendering of weighted results (the scorecard and metric tables
render in :mod:`repro.report.tables`)."""

from __future__ import annotations

from typing import Sequence

from .metric import MetricClass
from .scoring import WeightedResult, rank_products

__all__ = ["format_weighted_results"]


def format_weighted_results(results: Sequence[WeightedResult]) -> str:
    """Render ranked weighted scores per class and total (Figure 5 output)."""
    ranked = rank_products(results)
    col = max((len(r.product) for r in ranked), default=8) + 2
    lines = [
        f"{'product'.ljust(col)}{'S_1 (log)':>12}{'S_2 (arch)':>12}"
        f"{'S_3 (perf)':>12}{'total':>12}",
    ]
    lines.append("-" * len(lines[0]))
    for r in ranked:
        lines.append(
            f"{r.product.ljust(col)}"
            f"{r.class_scores[MetricClass.LOGISTICAL]:>12.2f}"
            f"{r.class_scores[MetricClass.ARCHITECTURAL]:>12.2f}"
            f"{r.class_scores[MetricClass.PERFORMANCE]:>12.2f}"
            f"{r.total:>12.2f}")
    return "\n".join(lines)
