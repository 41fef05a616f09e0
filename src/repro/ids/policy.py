"""Security policy: mapping threats to automated actions.

Section 2.2: "This is usually accomplished by a security policy that maps
threats to automated actions.  Policy must be accurate, for faulty policy
risks shutting out legitimate users."  And section 3.3: "An organizational
security policy that states the goals, acceptable uses, and constraints on
the system in terms of security is critical."

A :class:`SecurityPolicy` is an ordered list of :class:`PolicyRule` s; the
first matching rule's actions fire.  Actions are symbolic
(:class:`ResponseAction`); the management console binds them to actual
response devices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .alert import Alert, Severity

__all__ = ["ResponseAction", "PolicyRule", "SecurityPolicy"]


class ResponseAction(enum.Enum):
    """Automated responses an IDS can take (Table 3 interaction metrics)."""

    NOTIFY = "notify"                    # operator notification
    LOG_ONLY = "log-only"
    FIREWALL_BLOCK = "firewall-block"    # Firewall Interaction
    ROUTER_BLOCK = "router-block"        # Router Interaction
    SNMP_TRAP = "snmp-trap"              # SNMP Interaction
    HONEYPOT_REDIRECT = "honeypot-redirect"


@dataclass
class PolicyRule:
    """Match alerts by severity floor and optional category prefix."""

    min_severity: Severity
    actions: Tuple[ResponseAction, ...]
    category_prefix: Optional[str] = None
    name: str = ""

    def matches(self, alert: Alert) -> bool:
        if alert.severity < self.min_severity:
            return False
        if self.category_prefix is not None and not alert.category.startswith(
                self.category_prefix):
            return False
        return True


class SecurityPolicy:
    """Ordered first-match policy.

    ``default_actions`` apply when no rule matches (typically LOG_ONLY).
    """

    def __init__(
        self,
        rules: Sequence[PolicyRule] = (),
        default_actions: Tuple[ResponseAction, ...] = (ResponseAction.LOG_ONLY,),
    ) -> None:
        self.rules: List[PolicyRule] = list(rules)
        self.default_actions = tuple(default_actions)

    def actions_for(self, alert: Alert) -> Tuple[ResponseAction, ...]:
        for rule in self.rules:
            if rule.matches(alert):
                return rule.actions
        return self.default_actions

    def __len__(self) -> int:
        return len(self.rules)

    @staticmethod
    def default() -> "SecurityPolicy":
        """A sensible stock policy: notify on MEDIUM+, auto-block CRITICAL
        floods/exploits at the firewall, trap HIGH to SNMP."""
        return SecurityPolicy(rules=[
            PolicyRule(Severity.CRITICAL,
                       (ResponseAction.NOTIFY, ResponseAction.FIREWALL_BLOCK,
                        ResponseAction.SNMP_TRAP),
                       name="critical-block"),
            PolicyRule(Severity.HIGH,
                       (ResponseAction.NOTIFY, ResponseAction.SNMP_TRAP),
                       name="high-notify-trap"),
            PolicyRule(Severity.MEDIUM, (ResponseAction.NOTIFY,),
                       name="medium-notify"),
        ])
