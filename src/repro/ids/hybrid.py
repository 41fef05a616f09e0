"""Hybrid detection: signature and anomaly engines combined.

"A hybrid IDS uses both technologies either in series or in parallel"
(section 2.1).

* **parallel** -- both engines see every packet; hits are unioned.  Maximum
  coverage (known attacks via signatures, novel ones via anomaly) at maximum
  per-packet cost.
* **series** -- the signature stage runs first; the anomaly stage only sees
  packets the signature stage found *clean*.  Cheaper and lower-FP on known
  attacks (no duplicate hits), identical coverage of novel attacks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from ..net.packet import Packet
from .alert import Severity
from .anomaly import AnomalyBaseline
from .sensor import AnomalyDetector, SignatureDetector

__all__ = ["HybridDetector"]


class HybridDetector:
    """Compose a :class:`SignatureDetector` and an :class:`AnomalyDetector`.

    Parameters
    ----------
    mode:
        ``"parallel"`` or ``"series"`` (see module docstring).
    sensitivity:
        Set on both engines, including those of detectors passed in.
    """

    def __init__(
        self,
        signature: Optional[SignatureDetector] = None,
        anomaly: Optional[AnomalyDetector] = None,
        mode: str = "parallel",
        sensitivity: float = 0.5,
    ) -> None:
        if mode not in ("parallel", "series"):
            raise ConfigurationError(f"unknown hybrid mode {mode!r}")
        self.mode = mode
        self.signature = signature or SignatureDetector(
            sensitivity=sensitivity)
        self.anomaly = anomaly or AnomalyDetector(sensitivity=sensitivity)
        self.signature.engine.sensitivity = sensitivity
        self.anomaly.engine.sensitivity = sensitivity

    # training passthrough (the anomaly half needs a baseline)
    @property
    def window_s(self) -> float:
        return self.anomaly.window_s

    def train(self, pkt: Packet, now: float) -> None:
        self.anomaly.train(pkt, now)

    def freeze(self) -> AnomalyBaseline:
        return self.anomaly.freeze()

    def adopt(self, baseline: AnomalyBaseline) -> None:
        self.anomaly.adopt(baseline)

    def process(self, pkt: Packet, now: float) -> List[Tuple[str, Severity, float, str]]:
        sig_hits = self.signature.process(pkt, now)
        if self.mode == "series" and sig_hits:
            return sig_hits
        return sig_hits + self.anomaly.process(pkt, now)
