"""Accuracy experiments: FP/FN ratios, sensitivity sweep, Equal Error Rate.

Figure 4 of the paper shows Type-I (false positive) and Type-II (false
negative) error-rate curves against sensitivity, crossing at the Equal
Error Rate.  "Users should look for systems where the IDS's monitoring
sensitivity can be adjusted so equality between false positive and false
negative error rates can be achieved ... Of course the equal error rate is
not always ideal.  Given the choice, users might prefer to have lower
Type II error at the expense of higher Type I error rates."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import MeasurementError
from ..products.base import Product
from ..sim.faults import FaultPlan
from .corpus import serving
from .ground_truth import AccuracyResult
from .testbed import EvalTestbed

__all__ = ["SweepPoint", "SensitivitySweep", "run_accuracy",
           "sensitivity_sweep", "equal_error_rate"]


@dataclass(frozen=True)
class SweepPoint:
    """One sensitivity setting's observed error rates."""

    sensitivity: float
    false_positive_ratio: float
    false_negative_ratio: float
    result: AccuracyResult


@dataclass
class SensitivitySweep:
    """A full Figure-4 sweep for one product."""

    product: str
    points: List[SweepPoint]

    @property
    def sensitivities(self) -> np.ndarray:
        return np.asarray([p.sensitivity for p in self.points])

    @property
    def fpr(self) -> np.ndarray:
        return np.asarray([p.false_positive_ratio for p in self.points])

    @property
    def fnr(self) -> np.ndarray:
        return np.asarray([p.false_negative_ratio for p in self.points])

    def eer(self) -> Optional[Tuple[float, float]]:
        """Equal-error point ``(sensitivity, rate)`` or None (no crossing)."""
        return equal_error_rate(self.sensitivities, self.fpr, self.fnr)


def run_accuracy(
    product_factory: Callable[[float], Product],
    sensitivity: float,
    seed: int = 0,
    duration_s: float = 70.0,
    include_dos: bool = True,
    n_hosts: int = 6,
    profile: str = "cluster",
    fault_plan: Optional[FaultPlan] = None,
) -> AccuracyResult:
    """Deploy a product at one sensitivity and score the standard scenario.

    ``product_factory(sensitivity)`` must return a fresh product instance
    (products are deployed once per run so detector state never leaks).
    A non-empty ``fault_plan`` replays the scenario under injected faults
    (degraded-conditions accuracy); None or an empty plan is the clean,
    byte-identical path.
    """
    testbed = EvalTestbed(product_factory(sensitivity), n_hosts=n_hosts,
                          seed=seed, profile=profile)
    scenario = testbed.make_scenario(duration_s=duration_s,
                                     include_dos=include_dos)
    if fault_plan is not None and not fault_plan.is_empty:
        from .dependability import run_scenario_under_faults

        accuracy, _ = run_scenario_under_faults(testbed, scenario,
                                                fault_plan)
        return accuracy
    return testbed.run_scenario(scenario)


def sensitivity_sweep(
    product_factory: Callable[[float], Product],
    product_name: str,
    sensitivities: Sequence[float] = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0),
    seed: int = 0,
    duration_s: float = 70.0,
    include_dos: bool = False,
    n_hosts: int = 6,
    fault_plan: Optional[FaultPlan] = None,
) -> SensitivitySweep:
    """Sweep sensitivity and collect the two error-rate curves (Figure 4).

    DoS attacks are excluded by default: floods crash low-capacity products
    mid-sweep, which measures robustness (a different metric) rather than
    the accuracy curve.  A ``fault_plan`` runs every point under the same
    injected faults (how the Figure-4 curves shift when the IDS itself is
    degraded).
    """
    if not sensitivities:
        raise MeasurementError("need at least one sensitivity point")
    points: List[SweepPoint] = []
    with serving():  # every point replays one warmup and one scenario
        for s in sensitivities:
            result = run_accuracy(product_factory, float(s), seed=seed,
                                  duration_s=duration_s,
                                  include_dos=include_dos, n_hosts=n_hosts,
                                  fault_plan=fault_plan)
            points.append(SweepPoint(
                sensitivity=float(s),
                false_positive_ratio=result.false_positive_ratio,
                false_negative_ratio=result.false_negative_ratio,
                result=result))
    return SensitivitySweep(product=product_name, points=points)


def equal_error_rate(
    sensitivities: np.ndarray,
    fpr: np.ndarray,
    fnr: np.ndarray,
) -> Optional[Tuple[float, float]]:
    """Locate the FPR/FNR crossing by linear interpolation.

    Returns ``(sensitivity*, rate*)`` at the first sign change of
    ``fnr - fpr``, or ``None`` when the curves never cross in the swept
    range.
    """
    s = np.asarray(sensitivities, dtype=float)
    diff = np.asarray(fnr, dtype=float) - np.asarray(fpr, dtype=float)
    if len(s) < 2:
        return None
    for i in range(len(s) - 1):
        d0, d1 = diff[i], diff[i + 1]
        if d0 == 0.0:
            return float(s[i]), float(fpr[i])
        if d0 * d1 < 0:
            frac = d0 / (d0 - d1)
            s_star = s[i] + frac * (s[i + 1] - s[i])
            rate = fpr[i] + frac * (fpr[i + 1] - fpr[i])
            return float(s_star), float(rate)
    if diff[-1] == 0.0:
        return float(s[-1]), float(fpr[-1])
    return None
