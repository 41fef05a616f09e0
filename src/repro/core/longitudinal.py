"""Longitudinal re-evaluation: tracking scorecards across product releases.

Section 4: "Continual re-evaluation is especially important since vendors
rapidly update their products."  The scorecard's static metric set makes
successive evaluations directly comparable; this module keeps a history of
evaluations per product version and reports what changed and whether the
weighted outcome moved under a given requirement profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from ..errors import ScorecardError
from .scorecard import Scorecard
from .scoring import weighted_scores

__all__ = ["ScoreDelta", "EvaluationRecord", "EvaluationHistory"]


@dataclass(frozen=True)
class ScoreDelta:
    """One metric whose score changed between two evaluations."""

    metric: str
    before: Optional[int]
    after: Optional[int]

    @property
    def regression(self) -> bool:
        return (self.before is not None and self.after is not None
                and self.after < self.before)

    @property
    def improvement(self) -> bool:
        return (self.before is not None and self.after is not None
                and self.after > self.before)


@dataclass(frozen=True)
class EvaluationRecord:
    """A completed evaluation of one product version."""

    product: str
    version: str
    timestamp: str          # ISO date of the evaluation (free-form)
    scorecard: Scorecard


class EvaluationHistory:
    """Ordered evaluations of one product across versions."""

    def __init__(self, product: str) -> None:
        self.product = product
        self._records: List[EvaluationRecord] = []

    def add(self, version: str, timestamp: str, scorecard: Scorecard) -> None:
        if self.product not in scorecard.products:
            raise ScorecardError(
                f"scorecard does not contain product {self.product!r}")
        self._records.append(EvaluationRecord(
            product=self.product, version=version, timestamp=timestamp,
            scorecard=scorecard))

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    def deltas(self, from_version: str, to_version: str) -> List[ScoreDelta]:
        """Metrics whose scores changed between two recorded versions."""
        before = self._get(from_version)
        after = self._get(to_version)
        out: List[ScoreDelta] = []
        names = set(before.scorecard.catalog.names()) | set(
            after.scorecard.catalog.names())
        for name in sorted(names):
            b = (before.scorecard.score(self.product, name)
                 if name in before.scorecard.catalog else None)
            a = (after.scorecard.score(self.product, name)
                 if name in after.scorecard.catalog else None)
            if a != b:
                out.append(ScoreDelta(metric=name, before=b, after=a))
        return out

    def regressions(self, from_version: str, to_version: str) -> List[ScoreDelta]:
        return [d for d in self.deltas(from_version, to_version)
                if d.regression]

    def weighted_trend(
        self,
        weights: Mapping[str, float],
    ) -> List[Tuple[str, float]]:
        """Weighted total per recorded version under one requirement
        weighting -- does the vendor's update help *this* customer?"""
        out = []
        for record in self._records:
            result = weighted_scores(record.scorecard, weights,
                                     products=[self.product],
                                     strict=False)[0]
            out.append((record.version, result.total))
        return out

    def _get(self, version: str) -> EvaluationRecord:
        for record in self._records:
            if record.version == version:
                return record
        raise ScorecardError(f"no evaluation recorded for version {version!r}")
