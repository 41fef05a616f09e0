"""Differential testing: the anomaly engine must equal its reference.

:class:`~repro.ids.anomaly.AnomalyEngine` memoizes payload features and
scores against int-keyed tables; the per-call
:class:`~tests.oracles.anomaly_reference.ReferenceAnomalyEngine` does
neither.  For any training stream, any live stream, and any sensitivity --
including sensitivity changed *mid-run* -- both must produce the same
``(feature, score)`` transcripts and the same detection counter.
Hypothesis drives both over randomized traffic that deliberately hits the
production engine's edges: ICMP (no ports, size-z feature), sub-32-byte
payloads (below the entropy gate), text/binary token boundaries, and
payloads longer than the 256-byte entropy sample.

The payload feature helpers get their own bit-exactness properties:
``shannon_entropy_prefix`` vs a sliced ``shannon_entropy``, and
``_token_fast`` vs the oracle's per-byte ``reference_token``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ids.anomaly import AnomalyEngine, _token_fast
from repro.net.address import IPv4Address
from repro.net.packet import Packet, Protocol, TcpFlags
from repro.traffic.payload import shannon_entropy, shannon_entropy_prefix
from tests.oracles.anomaly_reference import (
    ReferenceAnomalyEngine,
    reference_token,
)

ADDRESSES = tuple(IPv4Address(f"10.0.0.{i}") for i in (1, 2, 3, 4))
PORTS = (22, 80, 7000, 7101, 40000)
SENSITIVITIES = (0.0, 0.3, 0.5, 0.85, 1.0)


# ----------------------------------------------------------------------
# payload strategies: the token extractor's and entropy gate's edges
# ----------------------------------------------------------------------
def byte_text(alphabet: bytes, min_size: int, max_size: int):
    return st.lists(st.sampled_from(list(alphabet)), min_size=min_size,
                    max_size=max_size).map(bytes)


# text-ish: first-word extraction, space at position 0, no space at all
text_payload = (byte_text(b"GET post login: helo_x ", 1, 64)
                | st.just(b" leading space")
                | st.just(b"GET /index.html HTTP/1.0\r\n")
                | st.just(b"no_space_long_command_word"))

# binary-ish: the 6-byte header + the [6:32) alpha-run window, runs that
# start before/straddle/end at the window edges
binary_payload = (
    byte_text(bytes(range(0, 8)) + b"abc_\x90\xff", 1, 48)
    | st.just(b"\x01\x02\x03\x04\x05\x06abcd_efgh")
    | st.just(b"\x00" * 6 + b"ab" + b"\x00" * 20 + b"longrun_pastwindow")
    | st.just(b"\x00" * 28 + b"word")          # run straddles offset 32
    | st.just(b"\x00" * 30 + b"wo"))           # too short inside window

random_payload = (st.none()
                  | byte_text(bytes(range(256)), 0, 31)   # below entropy gate
                  | byte_text(bytes(range(256)), 32, 80)
                  | byte_text(b"\x90\x41\x42", 200, 300)  # past the 256 sample
                  | text_payload
                  | binary_payload)

time_steps = st.sampled_from((0.001, 0.05, 0.4, 2.0))


@st.composite
def packet_event(draw):
    proto = draw(st.sampled_from((Protocol.TCP, Protocol.UDP,
                                  Protocol.ICMP)))
    src = draw(st.sampled_from(ADDRESSES))
    dst = draw(st.sampled_from(ADDRESSES))
    if proto is Protocol.ICMP:
        sport = dport = 0
        flags = TcpFlags.NONE
    else:
        sport = draw(st.sampled_from(PORTS))
        dport = draw(st.sampled_from(PORTS))
        flags = draw(st.sampled_from((TcpFlags.NONE, TcpFlags.SYN,
                                      TcpFlags.SYN | TcpFlags.ACK,
                                      TcpFlags.ACK | TcpFlags.PSH)))
    return (draw(time_steps),
            Packet(src=src, dst=dst, sport=sport, dport=dport, proto=proto,
                   flags=flags, payload=draw(random_payload)))


def packet_stream(max_events):
    return st.lists(packet_event(), min_size=1, max_size=max_events)


# ----------------------------------------------------------------------
# the differential harness
# ----------------------------------------------------------------------
def run_engine(engine_cls, train, live, sensitivity, mid_run_sensitivity=None):
    """Full transcript of one engine over a (train, live) split.

    Packets are rebuilt per run via :meth:`Packet.copy` so one engine's
    derived-feature memos can never leak into the other's inputs.
    """
    engine = engine_cls(sensitivity=sensitivity)
    now = 0.0
    for dt, pkt in train:
        now += dt
        engine.train(pkt.copy(), now)
    engine.freeze()
    out = []
    for i, (dt, pkt) in enumerate(live):
        if mid_run_sensitivity is not None and i == len(live) // 2:
            engine.sensitivity = mid_run_sensitivity
        now += dt
        for feature, score in engine.inspect(pkt.copy(), now):
            out.append((i, feature, score))
    return out, engine.packets_inspected, engine.detections


def assert_engines_agree(train, live, sensitivity, mid_run=None):
    reference = run_engine(ReferenceAnomalyEngine, train, live, sensitivity,
                         mid_run)
    fast = run_engine(AnomalyEngine, train, live, sensitivity, mid_run)
    assert fast == reference


class TestPayloadFeatureExactness:
    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(min_size=0, max_size=600),
           limit=st.sampled_from((1, 32, 256, 1024)))
    def test_entropy_prefix_bit_equal(self, data, limit):
        assert shannon_entropy_prefix(data, limit) == \
            shannon_entropy(data[:limit])

    @settings(max_examples=300, deadline=None)
    @given(payload=random_payload)
    def test_token_fast_value_equal(self, payload):
        pkt = Packet(src=ADDRESSES[0], dst=ADDRESSES[1], sport=80, dport=80,
                     payload=payload)
        assert _token_fast(payload) == reference_token(pkt)


class TestDifferential:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(train=packet_stream(20), live=packet_stream(20),
           sensitivity=st.sampled_from(SENSITIVITIES))
    def test_random_streams(self, train, live, sensitivity):
        assert_engines_agree(train, live, sensitivity)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(train=packet_stream(12), live=packet_stream(16),
           s1=st.sampled_from(SENSITIVITIES),
           s2=st.sampled_from(SENSITIVITIES))
    def test_mid_run_sensitivity_change(self, train, live, s1, s2):
        assert_engines_agree(train, live, s1, mid_run=s2)

    def test_icmp_size_feature_agrees(self):
        # deterministic anchor: train a stable ICMP size baseline, then
        # offer a far-out-of-envelope ping; both engines must flag it with
        # the identical score
        a, b = ADDRESSES[0], ADDRESSES[1]
        train = [(0.1, Packet(src=a, dst=b, proto=Protocol.ICMP,
                              payload=bytes(56 + (i % 3))))
                 for i in range(12)]
        live = [(0.1, Packet(src=a, dst=b, proto=Protocol.ICMP,
                             payload=bytes(4000)))]
        base = run_engine(ReferenceAnomalyEngine, train, live, 0.5)
        fast = run_engine(AnomalyEngine, train, live, 0.5)
        assert fast == base
        assert any(feature == "icmp-size" for _, feature, _ in base[0])


@pytest.mark.slow
class TestDifferentialDeep:
    """The long lane: realistic traffic, more examples (CI's -m slow lane)."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(train=packet_stream(40), live=packet_stream(40),
           sensitivity=st.sampled_from(SENSITIVITIES))
    def test_random_streams_deep(self, train, live, sensitivity):
        assert_engines_agree(train, live, sensitivity)

    @pytest.mark.parametrize("sensitivity", SENSITIVITIES)
    def test_cluster_profile_traffic(self, sensitivity):
        # the battery's actual traffic: cluster background as training,
        # the labeled scenario (attacks included) as the live stream
        import numpy as np

        from repro.eval.testbed import cluster_scenario
        from repro.traffic.profiles import ClusterProfile

        nodes = [IPv4Address(f"10.1.0.{i}") for i in range(1, 7)]
        warmup = ClusterProfile(nodes).generate(
            10.0, np.random.default_rng(7))
        scenario = cluster_scenario(nodes, duration_s=20.0, seed=7)
        train = [(0.0, p) for _, p in warmup]
        live = [(0.0, p) for _, p in scenario.trace]
        assert_engines_agree(train[:1500], live[:3000], sensitivity)
