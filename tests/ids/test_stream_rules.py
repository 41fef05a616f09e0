"""Tests for stream-aware signature matching (segmentation evasion)."""

import numpy as np
import pytest

from repro.attacks.exploits import OVERFLOW_MARKER, BufferOverflowExploit
from repro.errors import ConfigurationError
from repro.ids.alert import Severity
from repro.ids.signature import SignatureEngine, StreamPatternRule, default_ruleset
from repro.net.address import IPv4Address
from repro.net.packet import Packet, Protocol, TcpFlags
from repro.net.tcp import build_session

ATT = IPv4Address("198.18.0.1")
TGT = IPv4Address("10.0.0.5")


def seg(payload, seq, sport=4000, dport=143):
    return Packet(src=ATT, dst=TGT, sport=sport, dport=dport,
                  proto=Protocol.TCP, flags=TcpFlags.ACK | TcpFlags.PSH,
                  seq=seq, payload=payload)


@pytest.fixture
def rule():
    return StreamPatternRule("r", [b"EVILMARKER"], category="x")


class TestStreamPatternRule:
    def test_single_segment_match(self, rule):
        assert rule.match(seg(b"xxEVILMARKERxx", 0), 0.0, 0.5) is not None

    def test_match_across_segment_boundary(self, rule):
        assert rule.match(seg(b"prefix EVILM", 0), 0.0, 0.5) is None
        hit = rule.match(seg(b"ARKER suffix", 12), 0.1, 0.5)
        assert hit is not None
        assert hit.category == "x"

    def test_three_way_split(self, rule):
        assert rule.match(seg(b"...EVI", 0), 0.0, 0.5) is None
        assert rule.match(seg(b"LMAR", 6), 0.1, 0.5) is None
        assert rule.match(seg(b"KER...", 10), 0.2, 0.5) is not None

    def test_sequence_gap_resets_window(self, rule):
        assert rule.match(seg(b"prefix EVILM", 0), 0.0, 0.5) is None
        # next segment is NOT contiguous: window restarts, no false join
        assert rule.match(seg(b"ARKER suffix", 500), 0.1, 0.5) is None

    def test_flows_isolated(self, rule):
        assert rule.match(seg(b"EVILM", 0, sport=1111), 0.0, 0.5) is None
        assert rule.match(seg(b"ARKER", 5, sport=2222), 0.1, 0.5) is None

    def test_directions_isolated(self, rule):
        assert rule.match(seg(b"EVILM", 0), 0.0, 0.5) is None
        reverse = Packet(src=TGT, dst=ATT, sport=143, dport=4000,
                         proto=Protocol.TCP, seq=5, payload=b"ARKER")
        assert rule.match(reverse, 0.1, 0.5) is None

    def test_window_timeout_forgets_tail(self, rule):
        assert rule.match(seg(b"EVILM", 0), 0.0, 0.5) is None
        # far in the future: state expired, the continuation alone is clean
        assert rule.match(seg(b"ARKER", 5), 100.0, 0.5) is None

    def test_udp_matched_per_packet_without_stream_state(self, rule):
        udp_hit = Packet(src=ATT, dst=TGT, proto=Protocol.UDP,
                         payload=b"EVILMARKER")
        assert rule.match(udp_hit, 0.0, 0.5) is not None
        # but no cross-datagram joining: a split marker stays unmatched
        udp_a = Packet(src=ATT, dst=TGT, proto=Protocol.UDP, payload=b"EVILM")
        udp_b = Packet(src=ATT, dst=TGT, proto=Protocol.UDP, payload=b"ARKER")
        assert rule.match(udp_a, 0.0, 0.5) is None
        assert rule.match(udp_b, 0.1, 0.5) is None

    def test_no_payload_ignored(self, rule):
        empty = seg(None, 0)
        assert rule.match(empty, 0.0, 0.5) is None

    def test_flow_cap_evicts(self):
        rule = StreamPatternRule("r", [b"ZZ"], category="x", max_flows=4)
        for i in range(10):
            rule.match(seg(b"ab", 0, sport=1000 + i), float(i) * 0.001, 0.5)
        assert len(rule._streams) <= 5

    def test_benign_tails_never_stored(self):
        # no pattern can start with "a" or "b": the store gate must keep
        # the flow table empty no matter how many flows are offered
        rule = StreamPatternRule("r", [b"ZZ"], category="x", max_flows=4)
        for i in range(10):
            rule.match(seg(b"ab", 0, sport=1000 + i), float(i) * 0.001, 0.5)
        assert len(rule._streams) == 0

    def test_flow_cap_bounds_state_under_storable_churn(self):
        # every payload ends with a pattern-leading byte, so every flow
        # wants state; the cap and the eviction-queue compaction must keep
        # both structures bounded through heavy churn
        rule = StreamPatternRule("r", [b"ZZ"], category="x", max_flows=4)
        for i in range(200):
            rule.match(seg(b"aZ", 0, sport=1000 + i), float(i) * 0.001, 0.5)
            assert len(rule._streams) <= 4
            # lazy dead keys are compacted at 2x the cap, never beyond
            assert len(rule._order) < 2 * 4
        # survivors are the most recent flows: the newest tail still seams
        hit = rule.match(seg(b"Z...", 2, sport=1000 + 199), 0.2, 0.5)
        assert hit is not None

    def test_eviction_drops_oldest_flow_first(self):
        rule = StreamPatternRule("r", [b"ZZ"], category="x", max_flows=2)
        for i in range(3):  # third insert evicts the first flow
            assert rule.match(seg(b"aZ", 0, sport=7000 + i),
                              float(i) * 0.001, 0.5) is None
        assert rule.match(seg(b"Z", 2, sport=7000), 0.01, 0.5) is None
        assert rule.match(seg(b"Z", 2, sport=7002), 0.01, 0.5) is not None

    def test_empty_patterns_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamPatternRule("r", [], category="x")


class TestDefaultRulesetStreamBehaviour:
    def test_overflow_detected_with_tiny_mss(self):
        """Segmentation evasion: marker forced across segment boundaries."""
        engine = SignatureEngine(default_ruleset(), sensitivity=0.5)
        body = b"LOGIN " + b"A" * 100 + OVERFLOW_MARKER
        # mss=7 slices the 12-byte marker across >= 2 segments
        pkts = build_session(ATT, TGT, 4000, 143, request=body, mss=7)
        cats = set()
        for i, pkt in enumerate(pkts):
            for m in engine.inspect(pkt, i * 1e-3):
                cats.add(m.category)
        assert "overflow-exploit" in cats

    def test_attack_library_still_detected(self):
        engine = SignatureEngine(default_ruleset(), sensitivity=0.5)
        trace, _ = BufferOverflowExploit(ATT, TGT).generate(
            0.0, np.random.default_rng(1))
        cats = set()
        for t, pkt in trace:
            for m in engine.inspect(pkt, t):
                cats.add(m.category)
        assert "overflow-exploit" in cats
