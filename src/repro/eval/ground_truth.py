"""Ground-truth bookkeeping and the Figure-3 error ratios.

Figure 3 defines, over a body of transactions ``T`` with actual intrusions
``A`` and IDS-detected intrusions ``D`` (as sets):

    False Positive Ratio = |D - A| / |T|
    False Negative Ratio = |A - D| / |T|

Units, resolving the paper's own caveat that "even the definition of an
attack is not always clear" (section 4):

* an element of **A** is one *attack instance* (one scripted campaign with
  one ``attack_id``), regardless of its packet count;
* an element of **D** is one *claimed intrusion*: a distinct
  ``(category, source)`` pair among the alerts the monitor received.  A
  claim is *true* when any of its alerts traces back (via the ground-truth
  side channel) to an actual attack; the attack is then detected.  Claims
  whose alerts all trace to benign traffic form ``D - A``;
* a **transaction** is a unit of offered work: one benign flow
  (bidirectional five-tuple conversation) or one attack instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Set, Tuple

from ..ids.alert import Alert
from ..traffic.mixer import Scenario

__all__ = ["count_transactions", "AccuracyResult", "score_alerts"]


def count_transactions(scenario: Scenario) -> int:
    """``|T|``: benign flows plus attack instances in a scenario."""
    return scenario.trace.benign_flow_count() + len(scenario.attacks)


@dataclass
class AccuracyResult:
    """Outcome of one accuracy experiment (one product, one scenario)."""

    product: str
    transactions: int                    # |T|
    actual: Set[str]                     # A (attack ids)
    detected: Set[str]                   # A ∩ D (attack ids detected)
    missed: Set[str]                     # A - D
    false_alarms: int                    # |D - A| (distinct benign claims)
    alerts_total: int
    #: attack id -> seconds from attack start to first true alert
    detection_delay: Dict[str, float] = field(default_factory=dict)
    #: attack id -> seconds from attack start to first operator notification
    notification_delay: Dict[str, float] = field(default_factory=dict)

    @property
    def false_positive_ratio(self) -> float:
        """|D - A| / |T| (Figure 3)."""
        return self.false_alarms / self.transactions if self.transactions else 0.0

    @property
    def false_negative_ratio(self) -> float:
        """|A - D| / |T| (Figure 3)."""
        return len(self.missed) / self.transactions if self.transactions else 0.0

    @property
    def detection_ratio(self) -> float:
        """Detected attacks over actual attacks (convenience)."""
        return len(self.detected) / len(self.actual) if self.actual else 1.0

    def check_invariants(self) -> None:
        """Sanity identities implied by the Figure-3 set algebra."""
        assert self.detected | self.missed == self.actual
        assert not (self.detected & self.missed)
        assert 0.0 <= self.false_positive_ratio <= 1.0 or self.transactions == 0
        assert 0.0 <= self.false_negative_ratio <= 1.0


def score_alerts(
    product: str,
    scenario: Scenario,
    alerts: Sequence[Alert],
    notifications: Sequence = (),
) -> AccuracyResult:
    """Build an :class:`AccuracyResult` from a monitor's alert history."""
    actual = set(scenario.attack_ids)
    attack_start = {rec.attack_id: rec.start for rec in scenario.attacks}

    detected: Set[str] = set()
    detection_delay: Dict[str, float] = {}
    false_claims: Set[Tuple[str, int]] = set()

    for alert in alerts:
        truth = getattr(alert, "truth_attack_id", None)
        if truth is not None and truth in actual:
            detected.add(truth)
            delay = alert.time - attack_start[truth]
            prev = detection_delay.get(truth)
            if prev is None or delay < prev:
                detection_delay[truth] = delay
        else:
            false_claims.add((alert.category, alert.src.value))

    notification_delay: Dict[str, float] = {}
    for note in notifications:
        truth = getattr(note.alert, "truth_attack_id", None)
        if truth is not None and truth in actual:
            delay = note.time - attack_start[truth]
            prev = notification_delay.get(truth)
            if prev is None or delay < prev:
                notification_delay[truth] = delay

    result = AccuracyResult(
        product=product,
        transactions=count_transactions(scenario),
        actual=actual,
        detected=detected,
        missed=actual - detected,
        false_alarms=len(false_claims),
        alerts_total=len(alerts),
        detection_delay=detection_delay,
        notification_delay=notification_delay,
    )
    result.check_invariants()
    return result
