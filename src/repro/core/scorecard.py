"""The scorecard: products x metrics -> discrete scores with provenance.

Section 3.1: "The centerpiece of our testing and evaluation methodology is a
'scorecard' containing the set of general metrics and their definitions ...
Discrete scoring simplifies the process of assigning values to each metric
for a given system."

Every entry records *how* the value was observed (analysis vs open-source
material) and free-text evidence, giving the paper's "scientific
repeatability": the evaluation is against a static set of metrics and can be
reused with different weightings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ScorecardError
from .catalog import MetricCatalog
from .metric import Metric, ObservationMethod, validate_score

__all__ = ["ScoreEntry", "Scorecard"]


@dataclass(frozen=True)
class ScoreEntry:
    """One scored cell of the scorecard."""

    product: str
    metric: str
    score: int
    method: ObservationMethod
    evidence: str = ""
    raw_value: Optional[float] = None  # the measured quantity, when numeric


class Scorecard:
    """A mutable product-by-metric score matrix over a fixed catalog."""

    def __init__(self, catalog: MetricCatalog) -> None:
        self.catalog = catalog
        self._entries: Dict[Tuple[str, str], ScoreEntry] = {}
        self._products: List[str] = []

    # ------------------------------------------------------------------
    def add_product(self, product: str) -> None:
        if product in self._products:
            raise ScorecardError(f"product {product!r} already registered")
        self._products.append(product)

    @property
    def products(self) -> Tuple[str, ...]:
        return tuple(self._products)

    # ------------------------------------------------------------------
    def set_score(
        self,
        product: str,
        metric_name: str,
        score: int,
        method: ObservationMethod = ObservationMethod.ANALYSIS,
        evidence: str = "",
        raw_value: Optional[float] = None,
    ) -> ScoreEntry:
        """Record a score; validates range, metric, and observation method."""
        if product not in self._products:
            raise ScorecardError(
                f"unknown product {product!r}; call add_product first")
        metric = self.catalog.get(metric_name)
        validate_score(score, metric_name)
        if method not in metric.methods:
            raise ScorecardError(
                f"metric {metric_name!r} is not designated for "
                f"{method.value} observation")
        entry = ScoreEntry(product=product, metric=metric_name, score=score,
                           method=method, evidence=evidence,
                           raw_value=raw_value)
        self._entries[(product, metric_name)] = entry
        return entry

    def get(self, product: str, metric_name: str) -> Optional[ScoreEntry]:
        return self._entries.get((product, metric_name))

    def score(self, product: str, metric_name: str) -> Optional[int]:
        entry = self.get(product, metric_name)
        return None if entry is None else entry.score

    def __iter__(self) -> Iterator[ScoreEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def missing(self, product: str, metric_names: Optional[Sequence[str]] = None,
                ) -> List[str]:
        """Metric names (default: whole catalog) not yet scored."""
        names = metric_names if metric_names is not None else self.catalog.names()
        return [n for n in names if (product, n) not in self._entries]
