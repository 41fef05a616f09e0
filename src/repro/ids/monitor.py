"""Monitoring subprocess: operator visibility and notification.

Section 2.2: "The monitoring subprocess presents a view of the threat to the
operator ... Monitors are required to notify an operator whenever a threat is
severe according to a security policy."  The monitor is where Type-I error
hurts operationally: "frequent alerts on trivial or normal events ... lead to
the IDS being ignored by the operators."

:class:`Monitor` keeps the full alert history, applies the
security policy to decide notifications and response requests, and records
everything with timestamps so the harness can measure *Timeliness* and
notification latency.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..sim.engine import Engine
from .alert import Alert, Notification
from .component import Component, Subprocess
from .policy import ResponseAction, SecurityPolicy

__all__ = ["Monitor"]


class Monitor(Component):
    """Monitoring console.

    Parameters
    ----------
    policy:
        The security policy mapping alerts to actions.
    notify_delay_s:
        Console processing delay between receiving an alert and the
        operator notification going out.
    channels:
        Notification channels available ("console", "email", "pager", ...);
        variety feeds the *variety of operator notification* metric.
    """

    kind = Subprocess.MONITOR

    def __init__(
        self,
        engine: Engine,
        name: str,
        policy: Optional[SecurityPolicy] = None,
        notify_delay_s: float = 0.1,
        channels: Sequence[str] = ("console",),
    ) -> None:
        super().__init__(name)
        if notify_delay_s < 0:
            raise ConfigurationError("notify_delay_s must be >= 0")
        if not channels:
            raise ConfigurationError("at least one notification channel required")
        self.engine = engine
        self.policy = policy or SecurityPolicy.default()
        self.notify_delay_s = float(notify_delay_s)
        self.channels = tuple(channels)

        self.alerts: List[Alert] = []
        self.notifications: List[Notification] = []
        self.error_reports: List[Tuple[float, str]] = []
        self._responder: Optional[Callable[[ResponseAction, Alert], None]] = None

        # graceful-degradation state (dormant until a fault injector uses
        # the partition/heal hooks; clean runs never enter these paths)
        self.partitioned = False
        self.partitions = 0
        self.deferred_notifications = 0
        self.suppressed_responses = 0
        self._deferred: List[Alert] = []

    # ------------------------------------------------------------------
    def set_responder(self, responder: Callable[[ResponseAction, Alert], None]) -> None:
        """Attach the management console's response dispatcher (1:1c)."""
        self._responder = responder

    # ------------------------------------------------------------------
    def receive(self, alert: Alert) -> None:
        """Ingest an analyzer alert; apply policy."""
        self.alerts.append(alert)
        actions = self.policy.actions_for(alert)
        for action in actions:
            if action is ResponseAction.NOTIFY:
                self.engine.schedule(self.notify_delay_s, self._notify, alert)
            elif action is ResponseAction.LOG_ONLY:
                pass
            elif self._responder is not None:
                if self.partitioned:
                    # response requests need the (unreachable) management
                    # console; they are lost, not replayed -- stale
                    # responses after a partition heals would be wrong
                    self.suppressed_responses += 1
                else:
                    self._responder(action, alert)
            # actions other than NOTIFY/LOG with no console attached are
            # silently unavailable (an IDS without a manager cannot respond)

    def _notify(self, alert: Alert) -> None:
        if self.partitioned:
            # store-and-forward: notifications queue locally and go out
            # when the partition heals, at heal time (the delay is what
            # the timeliness delta measures)
            self._deferred.append(alert)
            self.deferred_notifications += 1
            return
        for channel in self.channels:
            self.notifications.append(
                Notification(time=self.engine.now, channel=channel, alert=alert))

    # ------------------------------------------------------------------
    # fault-injection hooks (driven by repro.sim.faults.FaultInjector)
    # ------------------------------------------------------------------
    def partition(self) -> None:
        """Cut the monitor off from operator and management console."""
        if self.partitioned:
            return
        self.partitioned = True
        self.partitions += 1

    def heal(self) -> None:
        """Restore connectivity and flush the deferred notifications."""
        if not self.partitioned:
            return
        self.partitioned = False
        backlog, self._deferred = self._deferred, []
        for alert in backlog:
            self._notify(alert)

    def report_error(self, message: str, time: float) -> None:
        """Failure-notification channel used by sensors (Error Reporting)."""
        self.error_reports.append((time, message))

    # ------------------------------------------------------------------
    # operator view
    # ------------------------------------------------------------------
    @property
    def alert_count(self) -> int:
        return len(self.alerts)
