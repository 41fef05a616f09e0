"""Per-call reference scoring for :class:`repro.ids.anomaly.AnomalyEngine`.

:class:`ReferenceAnomalyEngine` recomputes every payload feature per call
(sliced ``shannon_entropy``, a per-byte token scan), keys services by
``(Protocol, port)`` tuples and reads the ``_ServiceStats`` properties per
packet.  ``tests/ids/test_anomaly_fastpath.py`` requires the production
engine to produce the same transcripts, counters and baseline.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.ids.anomaly import (
    _ENTROPY_SAMPLE,
    AnomalyEngine,
    AnomalyScore,
    _logistic,
    _ServiceStats,
)
from repro.net.packet import Packet, Protocol, TcpFlags
from repro.traffic.payload import shannon_entropy

_ALPHA = frozenset(b"abcdefghijklmnopqrstuvwxyz_")


def reference_token(pkt: Packet) -> Optional[bytes]:
    """The application token by explicit per-byte loops."""
    p = pkt.payload
    if p is None or len(p) < 4:
        return None
    head = p[:16]
    printable = sum(32 <= b < 127 for b in head)
    if printable >= max(len(head) - 2, 4):  # text protocol
        return bytes(p.split(b" ", 1)[0][:12])
    run = b""
    current = bytearray()
    for b in p[6:32]:
        if b in _ALPHA:
            current.append(b)
            continue
        if len(current) >= 4:
            break
        current.clear()
    if len(current) >= 4:
        run = bytes(current[:12])
    return bytes(p[:6]) + b"|" + run


class ReferenceAnomalyEngine(AnomalyEngine):
    """The engine with per-call training and scoring, no memoization."""

    def train(self, pkt: Packet, now: float) -> None:
        if self.trained:
            raise ConfigurationError("engine already frozen; cannot train")
        port = self._server_port(pkt)
        key = (pkt.proto, port)
        self._services.add(key)

        if pkt.payload is not None:
            h = shannon_entropy(pkt.payload[:_ENTROPY_SAMPLE])
            token = reference_token(pkt)
            self._entropy.setdefault(key, _ServiceStats()).add(h)
            if token is not None:
                self._tokens.setdefault(key, set()).add(token)

        if pkt.proto is Protocol.ICMP:
            self._icmp_sizes.add(float(pkt.payload_len))

        bin_key = (pkt.src.value, int(now))
        self._train_bins[bin_key] = self._train_bins.get(bin_key, 0) + 1
        fo_key = (pkt.src.value, int(now // self.window_s))
        self._train_fanout.setdefault(fo_key, set()).add(pkt.dport)

    def freeze(self):
        # the per-source envelopes, kept as attributes the way the engine
        # kept them before freeze() returned an AnomalyBaseline
        if not self.trained:
            self._max_src_rate = (float(max(self._train_bins.values()))
                                  if self._train_bins else 1.0)
            self._max_fanout = (max(len(s) for s in self._train_fanout.values())
                                if self._train_fanout else 1)
        return super().freeze()

    def inspect(self, pkt: Packet, now: float) -> List[AnomalyScore]:
        if not self.trained:
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
        ratio = live[1] / max(self._max_src_rate, 1.0)
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
        if fan > self._max_fanout:
            s = _logistic(math.log2(fan / max(self._max_fanout, 1)),
                          midpoint=1.5, steepness=1.8)
            if s > t:
                scores.append(AnomalyScore(("fanout", s)))

        # new service (only consider plausible service-side ports)
        port = self._server_port(pkt)
        key = (pkt.proto, port)
        is_syn = (pkt.proto is Protocol.TCP and pkt.has_flag(TcpFlags.SYN)
                  and not pkt.has_flag(TcpFlags.ACK))
        if key not in self._services and (is_syn or pkt.proto is not Protocol.TCP):
            s = 0.75 if port < 1024 or pkt.dport == port else 0.55
            if s > t:
                scores.append(AnomalyScore(("new-service", s)))

        # payload entropy deviation
        if pkt.payload is not None and len(pkt.payload) >= 32:
            stats = self._entropy.get(key)
            if stats is not None and stats.n >= 8:
                h = shannon_entropy(pkt.payload[:_ENTROPY_SAMPLE])
                z = abs(h - stats.mean) / stats.std
                s = _logistic(z, midpoint=6.0, steepness=0.8)
                if s > t:
                    scores.append(AnomalyScore(("entropy", s)))

        # ICMP payload size
        if pkt.proto is Protocol.ICMP and self._icmp_sizes.n >= 8:
            z = abs(pkt.payload_len - self._icmp_sizes.mean) / self._icmp_sizes.std
            s = _logistic(z, midpoint=6.0, steepness=0.7)
            if s > t:
                scores.append(AnomalyScore(("icmp-size", s)))

        # token novelty on known services
        token = reference_token(pkt)
        if token is not None and key in self._tokens:
            if token not in self._tokens[key]:
                s = 0.7
                if s > t:
                    scores.append(AnomalyScore(("token", s)))

        self.detections += len(scores)
        return scores
