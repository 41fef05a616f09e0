"""Signature-based detection engine.

"A signature-based IDS attempts to detect patterns in network traffic that
are characteristic of known attacks" (section 2.1).  The engine evaluates a
rule set against each packet (and light per-source state for threshold
rules).  Like its commercial counterparts it only knows *previously known*
attacks: the shipped :func:`default_ruleset` covers the attack library's
known vectors but, by construction, not the ``novel=True`` ones.

Sensitivity
-----------
The engine exposes the paper's *Adjustable Sensitivity* metric: a value in
[0, 1].  Raising it lowers threshold-rule trigger counts and enables the
low-specificity "noisy" rules (which occasionally fire on benign traffic) --
trading false negatives for false positives exactly as Figure 4 describes.

Matching
--------
The paper's Class-3 performance metrics are measured by pushing traffic
through this engine.  :meth:`SignatureEngine.inspect` runs every enabled
rule's ``match`` on every packet, in rule order, so match reports come out
in rule order.  Each rule rejects a packet on its cheapest test first
(protocol, ports, flags), and :class:`StreamPatternRule` keeps flow state
only for tails that could start a pattern, so benign traffic stays cheap.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..net.packet import Packet, Protocol, TcpFlags
from .alert import Severity

__all__ = [
    "RuleMatch",
    "SignatureRule",
    "PayloadPatternRule",
    "StreamPatternRule",
    "HeaderRule",
    "ThresholdRule",
    "SignatureEngine",
    "default_ruleset",
]


@dataclass(frozen=True, slots=True)
class RuleMatch:
    """The outcome of a rule firing on a packet."""

    rule: str
    category: str
    severity: Severity
    score: float
    detail: str = ""


class SignatureRule:
    """Base rule.

    Parameters
    ----------
    name / category / severity:
        Identification and the threat class reported on match.
    min_sensitivity:
        The rule is evaluated only when the engine sensitivity is at least
        this value; low-specificity rules carry high values so they only
        fire on aggressive tunings.
    """

    __slots__ = ("name", "category", "severity", "min_sensitivity",
                 "base_score")

    def __init__(
        self,
        name: str,
        category: str,
        severity: Severity = Severity.MEDIUM,
        min_sensitivity: float = 0.0,
        base_score: float = 0.9,
    ) -> None:
        if not 0.0 <= min_sensitivity <= 1.0:
            raise ConfigurationError("min_sensitivity must be in [0, 1]")
        self.name = name
        self.category = category
        self.severity = severity
        self.min_sensitivity = float(min_sensitivity)
        self.base_score = float(base_score)

    def match(self, pkt: Packet, now: float, sensitivity: float) -> Optional[RuleMatch]:
        raise NotImplementedError

    def _hit(self, detail: str = "") -> RuleMatch:
        return RuleMatch(self.name, self.category, self.severity,
                         self.base_score, detail)


class PayloadPatternRule(SignatureRule):
    """Match any of a set of byte patterns in the packet payload.

    Only materialized payloads are inspected -- a deliberate property: this
    is the class of rule that makes payload realism matter (lesson 1).
    """

    __slots__ = ("patterns", "ports", "proto")

    def __init__(
        self,
        name: str,
        patterns: Sequence[bytes],
        ports: Optional[Sequence[int]] = None,
        proto: Optional[Protocol] = None,
        **kwargs,
    ) -> None:
        super().__init__(name, **kwargs)
        if not patterns:
            raise ConfigurationError("patterns must be non-empty")
        self.patterns = [bytes(p) for p in patterns]
        self.ports = frozenset(int(p) for p in ports) if ports is not None else None
        self.proto = proto

    def match(self, pkt: Packet, now: float, sensitivity: float) -> Optional[RuleMatch]:
        if pkt.payload is None:
            return None
        if self.proto is not None and pkt.proto is not self.proto:
            return None
        if self.ports is not None and pkt.dport not in self.ports and pkt.sport not in self.ports:
            return None
        for pattern in self.patterns:
            if pattern in pkt.payload:
                return self._hit(detail=f"pattern {pattern[:16]!r}")
        return None



class StreamPatternRule(SignatureRule):
    """Match byte patterns across TCP segment boundaries.

    Per-packet rules miss an attack whose signature straddles two segments
    (an easy evasion).  This rule keeps a bounded per-direction rolling
    buffer per flow: each segment is appended to the retained tail of the
    stream so any pattern shorter than the tail cannot slip through a
    segmentation seam.  Out-of-order delivery within a flow is handled by
    sequencing on TCP sequence numbers when they are contiguous and
    falling back to arrival order otherwise (the common fast path of
    commercial engines, which skip full stream reassembly).

    Flow-state economy: a carried tail can only ever matter if some byte
    of it could *start* a pattern, so flow state is stored only for tails
    containing at least one pattern-leading byte (a single C-speed
    character-class search over the last ``tail_len`` bytes decides).
    Benign traffic therefore keeps the flow table essentially empty -- a
    packet costs one dict miss instead of insert-and-evict churn.  When
    the ``max_flows`` cap is hit anyway, the oldest stored flow is evicted
    in amortized O(1) via a creation-order key queue -- no full-table
    sweeps on the packet path.  (A ``next(iter(dict))`` eviction cursor
    was tried first; under churn it degrades to scanning the tombstones
    that deletions leave in the dict's entry array.)
    """

    __slots__ = ("patterns", "ports", "max_flows", "window_s", "_tail_len",
                 "_tail_gate", "_streams", "_order")

    def __init__(
        self,
        name: str,
        patterns: Sequence[bytes],
        ports: Optional[Sequence[int]] = None,
        max_flows: int = 8192,
        window_s: float = 30.0,
        **kwargs,
    ) -> None:
        super().__init__(name, **kwargs)
        if not patterns:
            raise ConfigurationError("patterns must be non-empty")
        self.patterns = [bytes(p) for p in patterns]
        self.ports = frozenset(int(p) for p in ports) if ports is not None else None
        self.max_flows = int(max_flows)
        self.window_s = float(window_s)
        self._tail_len = max(len(p) for p in self.patterns) - 1
        # "could a pattern start in this tail?" -- class of leading bytes
        first = sorted({p[0] for p in self.patterns})
        self._tail_gate = re.compile(
            b"[" + b"".join(re.escape(bytes((b,))) for b in first) + b"]")
        # (src, sport, dst, dport) -> [stored_at, expected_seq, tail];
        # only flows whose tail passes the gate are present
        self._streams: Dict[tuple, list] = {}
        # stored-flow keys, oldest first; may contain stale keys (state
        # dropped on hit/degenerate tail), compacted when 2x the cap
        self._order: deque = deque()

    def _valid_tail(self, pkt: Packet, now: float, state: Optional[list]) -> bytes:
        """The carried tail, or ``b""`` when absent/expired/out-of-seq."""
        if state is None:
            return b""
        if now - state[0] > self.window_s or pkt.seq != state[1]:
            return b""
        return state[2]

    def _store_tail(self, key: tuple, state: Optional[list], pkt: Packet,
                    now: float, haystack: bytes) -> None:
        """Persist the next packet's seam context -- the trailing
        ``tail_len`` bytes of ``haystack`` -- but only if a pattern could
        start inside it; otherwise drop any stale state (an absent entry
        and an unusable tail are equivalent, and keeping the table free of
        dead flows is what makes the common path one dict miss)."""
        streams = self._streams
        tail_len = self._tail_len
        if tail_len and self._tail_gate.search(
                haystack, max(0, len(haystack) - tail_len)) is not None:
            tail = haystack[-tail_len:]
            if state is not None:
                state[0] = now
                state[1] = pkt.seq + len(pkt.payload)
                state[2] = tail
                return
            order = self._order
            while len(streams) >= self.max_flows:
                stale = streams.pop(order.popleft(), None)
                if stale is not None:
                    break
            streams[key] = [now, pkt.seq + len(pkt.payload), tail]
            order.append(key)
            if len(order) >= 2 * self.max_flows:
                # drop stale keys; dict.fromkeys dedups re-created flows
                self._order = deque(dict.fromkeys(
                    k for k in order if k in streams))
        elif state is not None:
            del streams[key]

    def match(self, pkt: Packet, now: float, sensitivity: float) -> Optional[RuleMatch]:
        payload = pkt.payload
        if payload is None:
            return None
        if self.ports is not None and pkt.dport not in self.ports \
                and pkt.sport not in self.ports:
            return None
        if pkt.proto_id != _TCP_ID:
            # datagrams have no stream: plain per-packet matching
            for pattern in self.patterns:
                if pattern in payload:
                    return self._hit(detail=f"pattern {pattern[:16]!r}")
            return None
        key = (pkt.src.value, pkt.sport, pkt.dst.value, pkt.dport)
        state = self._streams.get(key)
        tail = self._valid_tail(pkt, now, state)
        haystack = tail + payload if tail else payload
        for pattern in self.patterns:
            if pattern in haystack:
                if state is not None:
                    del self._streams[key]  # one hit per occurrence window
                return self._hit(detail=f"stream pattern {pattern[:16]!r}")
        self._store_tail(key, state, pkt, now, haystack)
        return None



class HeaderRule(SignatureRule):
    """Match on header fields only (proto, ports, flags, size)."""

    __slots__ = ("proto", "dports", "flags", "min_payload", "predicate")

    def __init__(
        self,
        name: str,
        proto: Optional[Protocol] = None,
        dports: Optional[Sequence[int]] = None,
        flags: Optional[TcpFlags] = None,
        min_payload: Optional[int] = None,
        predicate: Optional[Callable[[Packet], bool]] = None,
        **kwargs,
    ) -> None:
        super().__init__(name, **kwargs)
        self.proto = proto
        self.dports = frozenset(int(p) for p in dports) if dports is not None else None
        #: required flag bits, as a plain int (see ``Packet.flag_bits``)
        self.flags = None if flags is None else int(flags)
        self.min_payload = min_payload
        self.predicate = predicate

    def match(self, pkt: Packet, now: float, sensitivity: float) -> Optional[RuleMatch]:
        if self.proto is not None and pkt.proto is not self.proto:
            return None
        if self.dports is not None and pkt.dport not in self.dports:
            return None
        if self.flags is not None and pkt.flag_bits & self.flags != self.flags:
            return None
        if self.min_payload is not None and pkt.payload_len < self.min_payload:
            return None
        if self.predicate is not None and not self.predicate(pkt):
            return None
        return self._hit()


class ThresholdRule(SignatureRule):
    """Fire when a keyed event count exceeds a threshold within a window.

    This is the portscan-preprocessor family: ``key_fn`` buckets events
    (e.g. by source address), ``value_fn`` extracts the counted item
    (``None`` to skip the packet; a hashable to count *distinct* items, or
    the sentinel :attr:`COUNT` to count occurrences).

    The effective threshold scales with sensitivity: at 0 it doubles, at 1
    it halves -- the knob the Figure-4 sweep turns.
    """

    COUNT = object()

    __slots__ = ("key_fn", "value_fn", "threshold", "window_s", "_state",
                 "_eff_cache")

    def __init__(
        self,
        name: str,
        key_fn: Callable[[Packet], Optional[object]],
        value_fn: Callable[[Packet], Optional[object]],
        threshold: int,
        window_s: float = 5.0,
        **kwargs,
    ) -> None:
        super().__init__(name, **kwargs)
        if threshold < 1:
            raise ConfigurationError("threshold must be >= 1")
        if window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        self.key_fn = key_fn
        self.value_fn = value_fn
        self.threshold = int(threshold)
        self.window_s = float(window_s)
        # key -> (window_start, set-or-int, fired_in_window)
        self._state: Dict[object, list] = {}
        self._eff_cache: Tuple[float, int] = (-1.0, 0)

    def effective_threshold(self, sensitivity: float) -> int:
        cached_s, cached_t = self._eff_cache
        if cached_s == sensitivity:
            return cached_t
        value = max(1, int(round(self.threshold * (2.0 ** (1.0 - 2.0 * sensitivity)))))
        self._eff_cache = (sensitivity, value)
        return value

    def match(self, pkt: Packet, now: float, sensitivity: float) -> Optional[RuleMatch]:
        key = self.key_fn(pkt)
        if key is None:
            return None
        state = self._state.get(key)
        if state is not None and now - state[0] <= self.window_s:
            if state[2]:
                # one alert per key per window, and a fired window's count
                # is unobservable until expiry replaces the state wholesale
                # -- skip the accounting (value_fn included) entirely
                return None
        else:
            state = None  # expired: treat as absent
        value = self.value_fn(pkt)
        if value is None:
            return None
        if state is None:
            state = [now, (0 if value is ThresholdRule.COUNT else set()), False]
            self._state[key] = state
        if value is ThresholdRule.COUNT:
            count = state[1] + 1
            state[1] = count
        else:
            values = state[1]
            values.add(value)
            count = len(values)
        # inline the memoized effective threshold: sensitivity is fixed
        # across a run, so this is one tuple compare on the hot path
        cached_s, eff = self._eff_cache
        if cached_s != sensitivity:
            eff = self.effective_threshold(sensitivity)
        if count >= eff:
            state[2] = True
            return self._hit(detail=f"count={count} key={key}")
        return None


class SignatureEngine:
    """Evaluate a rule set against a packet stream.

    Parameters
    ----------
    rules:
        The rule set; order is preserved in match reporting.
    sensitivity:
        Engine-wide sensitivity in [0, 1]; see module docstring.
    """

    def __init__(self, rules: Sequence[SignatureRule],
                 sensitivity: float = 0.5) -> None:
        self.rules = list(rules)
        self.sensitivity = sensitivity
        self.packets_inspected = 0
        self.matches = 0

    @property
    def sensitivity(self) -> float:
        return self._sensitivity

    @sensitivity.setter
    def sensitivity(self, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError("sensitivity must be in [0, 1]")
        self._sensitivity = float(value)

    def inspect(self, pkt: Packet, now: float) -> List[RuleMatch]:
        """Run every enabled rule against the packet."""
        self.packets_inspected += 1
        s = self._sensitivity
        # hits are rare: plain .append on the hit path beats paying a
        # bound-method binding on every packet
        hits: List[RuleMatch] = []
        for rule in self.rules:
            if s < rule.min_sensitivity:
                continue
            m = rule.match(pkt, now, s)
            if m is not None:
                hits.append(m)
        self.matches += len(hits)
        return hits


# ----------------------------------------------------------------------
# The shipped rule set (what a 2002 commercial signature IDS "knows").
# ----------------------------------------------------------------------

#: Destination ports regarded as ordinary services on the protected nets.
_KNOWN_SERVICE_PORTS = frozenset({21, 22, 23, 25, 53, 80, 110, 143, 443,
                                  7000, 7001, 8000})

# Per-packet tests read the int mirrors ``Packet.proto_id`` and
# ``Packet.flag_bits``: an enum class attribute lookup or an IntFlag
# operation is a python-level call per packet.
_TCP_ID = Protocol.TCP.proto_id
_UDP_ID = Protocol.UDP.proto_id
_ICMP_ID = Protocol.ICMP.proto_id
_SYN_BITS = int(TcpFlags.SYN)
_SYN_ACK_BITS = int(TcpFlags.SYN | TcpFlags.ACK)


def default_ruleset(payload_inspection: bool = True) -> List[SignatureRule]:
    """The stock rule set shipped with the simulated signature products.

    ``payload_inspection=False`` yields a header-only variant (the class of
    IDS lesson 1 says random-data floods *can* load-test).
    """
    from ..attacks.exploits import CGI_PROBE_PATHS, OVERFLOW_MARKER

    rules: List[SignatureRule] = [
        # --- reconnaissance -------------------------------------------
        ThresholdRule(
            "syn-portscan",
            key_fn=lambda p: p.src.value if (
                p.proto_id == _TCP_ID
                and p.flag_bits & _SYN_ACK_BITS == _SYN_BITS) else None,
            value_fn=lambda p: p.dport,
            threshold=40, window_s=5.0,
            category="portscan", severity=Severity.MEDIUM),
        ThresholdRule(
            "icmp-sweep",
            key_fn=lambda p: p.src.value if p.proto_id == _ICMP_ID else None,
            value_fn=lambda p: p.dst.value,
            threshold=8, window_s=5.0,
            category="host-sweep", severity=Severity.LOW),
        # --- flooding --------------------------------------------------
        ThresholdRule(
            "syn-flood",
            key_fn=lambda p: p.dst.value if (
                p.proto_id == _TCP_ID
                and p.flag_bits & _SYN_ACK_BITS == _SYN_BITS) else None,
            value_fn=lambda p: ThresholdRule.COUNT,
            threshold=600, window_s=2.0,
            category="syn-flood", severity=Severity.HIGH),
        ThresholdRule(
            "udp-flood",
            key_fn=lambda p: p.dst.value if p.proto_id == _UDP_ID
            and p.dport not in (7000,) else None,
            value_fn=lambda p: ThresholdRule.COUNT,
            threshold=1500, window_s=2.0,
            category="udp-flood", severity=Severity.HIGH),
        # --- brute force -----------------------------------------------
        ThresholdRule(
            "telnet-bruteforce",
            key_fn=lambda p: (p.src.value, p.dst.value) if (
                p.proto_id == _TCP_ID and p.dport == 23) else None,
            value_fn=lambda p: ThresholdRule.COUNT,
            threshold=60, window_s=10.0,
            category="brute-force", severity=Severity.HIGH),
    ]
    if payload_inspection:
        rules += [
            # stream-aware: a marker split across TCP segments still matches
            StreamPatternRule(
                "shellcode-marker", [OVERFLOW_MARKER, b"\x90\x90\x90\x90\x90\x90"],
                category="overflow-exploit", severity=Severity.CRITICAL),
            StreamPatternRule(
                "cgi-probes",
                [p.split("?")[0].encode("ascii") for p in CGI_PROBE_PATHS],
                ports=[80],
                category="cgi-exploit", severity=Severity.HIGH),
            PayloadPatternRule(
                "login-failure-storm", [b"Login incorrect"],
                ports=[23],
                category="brute-force", severity=Severity.MEDIUM,
                base_score=0.6),
            # --- low-specificity "noisy" rules (high sensitivity only) --
            _LongUriRule(),
        ]
        rules.append(_OddPortRule())
    else:
        rules.append(_OddPortRule())
    return rules


class _LongUriRule(SignatureRule):
    """Noisy rule: flag HTTP requests with unusually long URIs.

    The URI-length cutoff shrinks as sensitivity rises, so aggressive
    tunings flag a tail of perfectly benign requests -- a realistic
    false-positive source.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("long-uri", category="suspicious-http",
                         severity=Severity.LOW, min_sensitivity=0.55,
                         base_score=0.35)

    def match(self, pkt: Packet, now: float, sensitivity: float) -> Optional[RuleMatch]:
        if pkt.payload is None or pkt.proto_id != _TCP_ID or pkt.dport != 80:
            return None
        if not pkt.payload.startswith((b"GET ", b"POST ", b"HEAD ")):
            return None
        try:
            uri = pkt.payload.split(b" ", 2)[1]
        except IndexError:
            return None
        cutoff = int(120 - 90 * sensitivity)  # 120 chars at s=0 .. 30 at s=1
        if len(uri) > cutoff:
            return self._hit(detail=f"uri_len={len(uri)}")
        return None


class _OddPortRule(SignatureRule):
    """Noisy rule: TCP SYN to a non-standard service port.

    Catches the novel exploit's port 31337 -- but at high sensitivity also
    fires on benign ephemeral-port traffic.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("odd-port-service", category="suspicious-connection",
                         severity=Severity.LOW, min_sensitivity=0.7,
                         base_score=0.3)

    def match(self, pkt: Packet, now: float, sensitivity: float) -> Optional[RuleMatch]:
        if pkt.proto_id != _TCP_ID:
            return None
        if pkt.flag_bits & _SYN_ACK_BITS != _SYN_BITS:  # bare SYN only
            return None
        if pkt.dport in _KNOWN_SERVICE_PORTS:
            return None
        # At the highest sensitivities even high ephemeral ports are flagged;
        # lower sensitivities only mind privileged/odd low ports.
        cutoff = 1024 if sensitivity < 0.85 else 65536
        if pkt.dport < cutoff or pkt.dport in (31337, 12345, 27374):
            return self._hit(detail=f"dport={pkt.dport}")
        return None
