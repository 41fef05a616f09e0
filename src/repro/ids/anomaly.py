"""Anomaly-based detection engine.

"An anomaly-based IDS attempts to detect behavior that is inconsistent with
'normal' behavior" (section 2.1).  The engine learns a traffic baseline from
a benign training window -- the paper: "a constrained application environment
may help constrain the definition of normal behavior making anomaly-based
systems more appropriate ... such as those used for cluster super-computing"
-- and then scores live packets against it.

Feature set (all O(1) per packet):

``rate``
    Per-source packet rate (sliding bins) vs the trained per-source maximum.
``fanout``
    Distinct destination ports per source in a window vs trained maximum.
``new-service``
    A (proto, server-port) pair never seen in training.
``entropy``
    Payload byte entropy vs the trained per-service mean/stddev.
``icmp-size``
    ICMP payload size vs trained distribution.
``token``
    Unseen payload-prefix token on a *known* service port (application-
    protocol fluency: catches rogue commands inside an otherwise-normal
    cluster protocol -- the insider case of section 3.3).

Each feature maps its deviation through a logistic into a suspicion score in
[0, 1]; the packet's score is the max.  A detection fires when the score
exceeds ``threshold(sensitivity) = 0.95 - 0.85 * sensitivity``: the
continuous knob behind the Figure-4 error-rate curves.

Scoring
-------
:meth:`AnomalyEngine.inspect` memoizes the payload-derived features (prefix
entropy, application token) on the packet itself, so a battery that runs
several detectors over the same trace pays for them once, and looks the
``(proto, port)`` service up as a small int key in the tables of the
engine's :class:`AnomalyBaseline`.

Shared baselines
----------------
:meth:`AnomalyEngine.freeze` turns what training saw into a read-only
:class:`AnomalyBaseline`.  Training reads the packets and ``window_s``,
never the sensitivity, so engines with the same ``window_s`` trained on the
same trace learn equal baselines: one engine can train and freeze, and the
others :meth:`~AnomalyEngine.adopt` its baseline.  Sensitivity and all live
state (rate bins, fan-out windows, counters) stay per engine.
"""

from __future__ import annotations

import math
import re
from types import MappingProxyType
from typing import (Dict, FrozenSet, List, Mapping, NamedTuple, Optional,
                    Set, Tuple)

from ..errors import ConfigurationError
from ..net.packet import Packet, Protocol, TcpFlags
from ..traffic.payload import shannon_entropy_prefix
from .alert import Severity

__all__ = ["AnomalyBaseline", "AnomalyEngine", "AnomalyScore"]

_ENTROPY_SAMPLE = 256  # bytes of payload fed to the entropy estimator

_TCP_ID = Protocol.TCP.proto_id
_ICMP_ID = Protocol.ICMP.proto_id
_SYN_BIT = int(TcpFlags.SYN)
_ACK_BIT = int(TcpFlags.ACK)

_PRINTABLE_BYTES = bytes(range(32, 127))
_ALPHA_RUN_RE = re.compile(rb"[a-z_]{4,}")


def _token_fast(p: Optional[bytes]) -> Optional[bytes]:
    """Extract a *stable* application-protocol token from a payload.

    Text protocols: the first word ("GET", "HELO", "login:").  Binary
    protocols: the 6-byte magic+type header plus the first embedded
    command-like ASCII run -- volatile fields (sequence numbers, float
    samples) are deliberately excluded so that ordinary traffic yields a
    small, learnable token set while a rogue command inside an
    otherwise-normal protocol produces a token never seen in training.

    ``bytes.translate`` counts the printable head, ``bytes.find`` locates
    the first word boundary without splitting the whole payload, and a
    precompiled regex finds the first >=4-byte lowercase/underscore run in
    the ``p[6:32]`` window.
    """
    if p is None or len(p) < 4:
        return None
    head = p[:16]
    printable = len(head) - len(head.translate(None, _PRINTABLE_BYTES))
    if printable >= max(len(head) - 2, 4):  # text protocol
        sp = p.find(b" ")
        end = sp if sp >= 0 else len(p)
        return p[: end if end < 12 else 12]
    m = _ALPHA_RUN_RE.search(p, 6, 32)
    run = m.group()[:12] if m is not None else b""
    return p[:6] + b"|" + run


def _logistic(z: float, midpoint: float, steepness: float = 1.0) -> float:
    """Map a deviation ``z`` to (0, 1) with 0.5 at ``midpoint``."""
    try:
        return 1.0 / (1.0 + math.exp(-steepness * (z - midpoint)))
    except OverflowError:  # pragma: no cover - extreme z
        return 0.0 if z < midpoint else 1.0


class AnomalyScore(Tuple[str, float]):
    """(feature, score) pair; tuple subclass for cheap construction."""

    __slots__ = ()


class _ServiceStats:
    """Streaming entropy statistics for one (proto, port) service."""

    __slots__ = ("n", "mean", "m2")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        d = x - self.mean
        self.mean += d / self.n
        self.m2 += d * (x - self.mean)

    @property
    def std(self) -> float:
        if self.n < 2:
            return 1.0
        return max(math.sqrt(self.m2 / (self.n - 1)), 0.05)


class AnomalyBaseline(NamedTuple):
    """A frozen training result, as the tables :meth:`AnomalyEngine.inspect`
    reads.

    Services are int keys ``proto_id << 16 | server_port``; the mappings
    are read-only views and the token sets frozen, so engines that adopt
    one baseline can share it.  ``(mean, std)`` pairs are the exact float
    values of the training statistics.
    """

    #: the fan-out window the baseline was learned with
    window_s: float
    #: every service seen in training
    services: FrozenSet[int]
    #: service -> entropy ``(mean, std)``, for services with >= 8 samples
    entropy: Mapping[int, Tuple[float, float]]
    #: service -> application tokens seen on it
    tokens: Mapping[int, FrozenSet[bytes]]
    #: ICMP payload size ``(mean, std)``, or None below 8 samples
    icmp: Optional[Tuple[float, float]]
    #: trained per-source maximum packets per 1 s bin (at least 1.0)
    max_src_rate: float
    #: trained per-source maximum distinct ports per window (at least 1)
    max_fanout: int


class AnomalyEngine:
    """Baseline-learning behavioural detector.

    Usage: feed benign traffic through :meth:`train`, call :meth:`freeze`,
    then :meth:`inspect` live packets; or :meth:`adopt` the baseline
    another engine froze.
    """

    def __init__(self, sensitivity: float = 0.5,
                 window_s: float = 5.0) -> None:
        if window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        self.sensitivity = sensitivity
        self.window_s = float(window_s)
        self.packets_inspected = 0
        self.detections = 0

        # --- training state ---
        self._services: Set[Tuple[Protocol, int]] = set()
        self._entropy: Dict[Tuple[Protocol, int], _ServiceStats] = {}
        self._tokens: Dict[Tuple[Protocol, int], Set[bytes]] = {}
        self._icmp_sizes = _ServiceStats()
        self._train_bins: Dict[Tuple[int, int], int] = {}
        self._train_fanout: Dict[Tuple[int, int], Set[int]] = {}

        #: the frozen baseline (set by freeze() or adopt())
        self.baseline: Optional[AnomalyBaseline] = None

        # --- live state ---
        self._live_bins: Dict[int, list] = {}     # src -> [bin_idx, count]
        self._live_fanout: Dict[int, list] = {}   # src -> [win_start, set]

    # ------------------------------------------------------------------
    @property
    def sensitivity(self) -> float:
        return self._sensitivity

    @sensitivity.setter
    def sensitivity(self, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError("sensitivity must be in [0, 1]")
        self._sensitivity = float(value)

    @property
    def trained(self) -> bool:
        """Whether the engine is frozen on a baseline."""
        return self.baseline is not None

    @property
    def threshold(self) -> float:
        """Detection threshold on the suspicion score (falls as sensitivity
        rises)."""
        return 0.95 - 0.85 * self._sensitivity

    @staticmethod
    def _server_port(pkt: Packet) -> Optional[int]:
        """Heuristic service port: the lower of the two (server side)."""
        if pkt.proto is Protocol.ICMP:
            return 0
        return min(pkt.sport, pkt.dport)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train(self, pkt: Packet, now: float) -> None:
        """Incorporate one benign packet into the baseline."""
        if self.trained:
            raise ConfigurationError("engine already frozen; cannot train")
        port = self._server_port(pkt)
        key = (pkt.proto, port)
        self._services.add(key)

        if pkt.payload is not None:
            h = pkt._h256
            if h is None:
                h = shannon_entropy_prefix(pkt.payload, _ENTROPY_SAMPLE)
                pkt._h256 = h
            token = pkt._tok
            if token is False:
                token = _token_fast(pkt.payload)
                pkt._tok = token
            self._entropy.setdefault(key, _ServiceStats()).add(h)
            if token is not None:
                self._tokens.setdefault(key, set()).add(token)

        if pkt.proto is Protocol.ICMP:
            self._icmp_sizes.add(float(pkt.payload_len))

        # per-source rate bins (1 s) and fan-out windows
        bin_key = (pkt.src.value, int(now))
        self._train_bins[bin_key] = self._train_bins.get(bin_key, 0) + 1
        fo_key = (pkt.src.value, int(now // self.window_s))
        self._train_fanout.setdefault(fo_key, set()).add(pkt.dport)

    def freeze(self) -> AnomalyBaseline:
        """Finish training: derive the baseline from what :meth:`train`
        saw (per-source rate/fan-out envelopes of 1 when it saw nothing),
        adopt it and return it.  A frozen engine keeps its baseline."""
        if self.baseline is not None:
            return self.baseline
        services = frozenset(
            (proto.proto_id << 16) | port for proto, port in self._services)
        entropy = {
            (proto.proto_id << 16) | port: (stats.mean, stats.std)
            for (proto, port), stats in self._entropy.items()
            if stats.n >= 8}
        tokens = {
            (proto.proto_id << 16) | port: frozenset(seen)
            for (proto, port), seen in self._tokens.items()}
        icmp = ((self._icmp_sizes.mean, self._icmp_sizes.std)
                if self._icmp_sizes.n >= 8 else None)
        max_src_rate = (float(max(self._train_bins.values()))
                        if self._train_bins else 1.0)
        max_fanout = (max(len(s) for s in self._train_fanout.values())
                      if self._train_fanout else 1)
        baseline = AnomalyBaseline(
            self.window_s, services, MappingProxyType(entropy),
            MappingProxyType(tokens), icmp, max_src_rate, max_fanout)
        self._train_bins.clear()
        self._train_fanout.clear()
        self.adopt(baseline)
        return baseline

    def adopt(self, baseline: AnomalyBaseline) -> None:
        """Freeze on a baseline learned elsewhere with the same
        ``window_s``; the engine must not have trained itself."""
        if self.trained:
            raise ConfigurationError("engine already frozen")
        if self._train_bins:
            raise ConfigurationError(
                "engine has training data of its own; freeze() it instead")
        if baseline.window_s != self.window_s:
            raise ConfigurationError(
                f"baseline learned with window_s={baseline.window_s}, "
                f"engine uses {self.window_s}")
        self.baseline = baseline

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------
    def inspect(self, pkt: Packet, now: float) -> List[AnomalyScore]:
        """Score one packet; returns the features above threshold."""
        base = self.baseline
        if base is None:
            raise ConfigurationError("AnomalyEngine.inspect before freeze()")
        self.packets_inspected += 1
        scores: List[AnomalyScore] = []
        t = self.threshold

        # rate
        src = pkt.src.value
        bin_idx = int(now)
        live = self._live_bins.get(src)
        if live is None or live[0] != bin_idx:
            live = [bin_idx, 0]
            self._live_bins[src] = live
        live[1] += 1
        ratio = live[1] / base.max_src_rate
        if ratio > 1.0:
            s = _logistic(math.log2(ratio), midpoint=2.0, steepness=1.6)
            if s > t:
                scores.append(AnomalyScore(("rate", s)))

        # fan-out
        fo = self._live_fanout.get(src)
        if fo is None or now - fo[0] > self.window_s:
            fo = [now, set()]
            self._live_fanout[src] = fo
        fo[1].add(pkt.dport)
        fan = len(fo[1])
        max_fanout = base.max_fanout
        if fan > max_fanout:
            s = _logistic(math.log2(fan / max_fanout),
                          midpoint=1.5, steepness=1.8)
            if s > t:
                scores.append(AnomalyScore(("fanout", s)))

        # new service (only consider plausible service-side ports)
        proto_id = pkt.proto_id
        if proto_id == _ICMP_ID:
            port = 0
        else:
            sport = pkt.sport
            dport = pkt.dport
            port = sport if sport < dport else dport
        ik = (proto_id << 16) | port
        if ik not in base.services:
            fb = pkt.flag_bits
            if (proto_id != _TCP_ID
                    or (fb & _SYN_BIT and not fb & _ACK_BIT)):
                s = 0.75 if port < 1024 or pkt.dport == port else 0.55
                if s > t:
                    scores.append(AnomalyScore(("new-service", s)))

        # payload entropy deviation
        payload = pkt.payload
        if payload is not None and len(payload) >= 32:
            params = base.entropy.get(ik)
            if params is not None:
                h = pkt._h256
                if h is None:
                    h = shannon_entropy_prefix(payload, _ENTROPY_SAMPLE)
                    pkt._h256 = h
                z = abs(h - params[0]) / params[1]
                s = _logistic(z, midpoint=6.0, steepness=0.8)
                if s > t:
                    scores.append(AnomalyScore(("entropy", s)))

        # ICMP payload size
        params = base.icmp
        if proto_id == _ICMP_ID and params is not None:
            z = abs(pkt._payload_len - params[0]) / params[1]
            s = _logistic(z, midpoint=6.0, steepness=0.7)
            if s > t:
                scores.append(AnomalyScore(("icmp-size", s)))

        # token novelty on known services
        known = base.tokens.get(ik)
        if known is not None and 0.7 > t:
            token = pkt._tok
            if token is False:
                token = _token_fast(payload)
                pkt._tok = token
            if token is not None and token not in known:
                scores.append(AnomalyScore(("token", 0.7)))

        self.detections += len(scores)
        return scores

    # ------------------------------------------------------------------
    @staticmethod
    def severity_for(score: float) -> Severity:
        """Map a suspicion score onto the severity ladder."""
        if score >= 0.9:
            return Severity.HIGH
        if score >= 0.7:
            return Severity.MEDIUM
        return Severity.LOW
