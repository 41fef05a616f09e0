"""Differential testing: an adopted baseline scores like one's own.

Training reads the packets and ``window_s``, never sensitivity, so an
:class:`~repro.ids.anomaly.AnomalyEngine` that adopts the baseline another
engine froze must produce, for any live stream and any sensitivity --
including sensitivity changed mid-run -- the same ``(feature, score)``
transcripts and counters as an engine trained on its own.  Engines sharing
one baseline keep their live windows apart, and nothing they do changes the
baseline.  The traffic strategies are those of ``test_anomaly_fastpath.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.ids.anomaly import AnomalyEngine
from repro.net.packet import Packet, Protocol
from tests.ids.test_anomaly_fastpath import (
    ADDRESSES,
    SENSITIVITIES,
    packet_stream,
)


def benign(n):
    """``n`` timed packets of one small UDP service."""
    return [(0.1, Packet(src=ADDRESSES[i % 2], dst=ADDRESSES[2],
                         sport=40000, dport=7000, proto=Protocol.UDP,
                         payload=b"\x01\x02\x03\x04\x05\x06telemetry" * 3))
            for i in range(n)]


def learned(train, sensitivity=0.5, window_s=5.0):
    """An engine trained on copies of ``train`` and frozen."""
    engine = AnomalyEngine(sensitivity=sensitivity, window_s=window_s)
    now = 0.0
    for dt, pkt in train:
        now += dt
        engine.train(pkt.copy(), now)
    engine.freeze()
    return engine, now


def transcript(engine, live, start, mid_run_sensitivity=None):
    """Inspect copies of ``live`` from ``start``; the transcript plus the
    engine's counters."""
    out = []
    now = start
    for i, (dt, pkt) in enumerate(live):
        if mid_run_sensitivity is not None and i == len(live) // 2:
            engine.sensitivity = mid_run_sensitivity
        now += dt
        for feature, score in engine.inspect(pkt.copy(), now):
            out.append((i, feature, score))
    return out, engine.packets_inspected, engine.detections


def adopter(baseline, sensitivity):
    engine = AnomalyEngine(sensitivity=sensitivity,
                           window_s=baseline.window_s)
    engine.adopt(baseline)
    return engine


def frozen_copy(baseline):
    """Plain containers holding the baseline's values."""
    return (baseline.window_s, set(baseline.services),
            dict(baseline.entropy),
            {k: set(v) for k, v in baseline.tokens.items()},
            baseline.icmp, baseline.max_src_rate, baseline.max_fanout)


class TestAdoptedEqualsOwn:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(train=packet_stream(20), live=packet_stream(20),
           learner_s=st.sampled_from(SENSITIVITIES),
           sensitivity=st.sampled_from(SENSITIVITIES))
    def test_random_streams(self, train, live, learner_s, sensitivity):
        learner, start = learned(train, sensitivity=learner_s)
        own, _ = learned(train, sensitivity=sensitivity)
        shared = adopter(learner.baseline, sensitivity)
        assert own.baseline == learner.baseline
        assert (transcript(shared, live, start)
                == transcript(own, live, start))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(train=packet_stream(12), live=packet_stream(16),
           s1=st.sampled_from(SENSITIVITIES),
           s2=st.sampled_from(SENSITIVITIES))
    def test_mid_run_sensitivity_change(self, train, live, s1, s2):
        learner, start = learned(train)
        own, _ = learned(train, sensitivity=s1)
        shared = adopter(learner.baseline, s1)
        assert (transcript(shared, live, start, mid_run_sensitivity=s2)
                == transcript(own, live, start, mid_run_sensitivity=s2))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(train=packet_stream(12), live=packet_stream(16))
    def test_empty_training_envelope(self, train, live):
        # a probe deployment freezes without training: envelopes of 1
        empty, _ = learned([])
        assert empty.baseline.max_src_rate == 1.0
        assert empty.baseline.max_fanout == 1
        shared = adopter(empty.baseline, 0.5)
        fresh = AnomalyEngine()
        fresh.freeze()
        assert transcript(shared, live, 0.0) == transcript(fresh, live, 0.0)


class TestSharedIsolation:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(train=packet_stream(12), a_live=packet_stream(16),
           b_live=packet_stream(16),
           s_a=st.sampled_from(SENSITIVITIES),
           s_b=st.sampled_from(SENSITIVITIES))
    def test_live_windows_stay_per_engine(self, train, a_live, b_live,
                                          s_a, s_b):
        # two adopters fed interleaved streams score each stream exactly as
        # an adopter that saw that stream alone
        learner, start = learned(train)
        baseline = learner.baseline
        before = frozen_copy(baseline)
        a, b = adopter(baseline, s_a), adopter(baseline, s_b)
        got = {"a": [], "b": []}
        times = {"a": start, "b": start}
        queues = {"a": list(enumerate(a_live)), "b": list(enumerate(b_live))}
        engines = {"a": a, "b": b}
        while queues["a"] or queues["b"]:
            for name in ("a", "b"):
                if queues[name]:
                    i, (dt, pkt) = queues[name].pop(0)
                    times[name] += dt
                    for feature, score in engines[name].inspect(
                            pkt.copy(), times[name]):
                        got[name].append((i, feature, score))
        alone_a = transcript(adopter(baseline, s_a), a_live, start)
        alone_b = transcript(adopter(baseline, s_b), b_live, start)
        assert (got["a"], a.packets_inspected, a.detections) == alone_a
        assert (got["b"], b.packets_inspected, b.detections) == alone_b
        assert a._live_bins is not b._live_bins
        assert frozen_copy(baseline) == before

    def test_baseline_tables_are_read_only(self):
        learner, _ = learned(benign(12))
        baseline = learner.baseline
        with pytest.raises(TypeError):
            baseline.entropy[1] = (0.0, 1.0)
        with pytest.raises(TypeError):
            baseline.tokens[1] = frozenset()
        with pytest.raises(AttributeError):
            baseline.services.add(1)
        with pytest.raises(AttributeError):
            baseline.max_fanout = 9



class TestAdoptContract:
    def test_window_mismatch_rejected(self):
        learner, _ = learned([], window_s=5.0)
        with pytest.raises(ConfigurationError):
            AnomalyEngine(window_s=2.0).adopt(learner.baseline)

    def test_frozen_engine_cannot_adopt(self):
        learner, _ = learned([])
        other, _ = learned([])
        with pytest.raises(ConfigurationError):
            other.adopt(learner.baseline)

    def test_engine_with_own_training_cannot_adopt(self):
        learner, _ = learned([])
        engine = AnomalyEngine()
        engine.train(benign(1)[0][1], 0.0)
        with pytest.raises(ConfigurationError):
            engine.adopt(learner.baseline)

    def test_freeze_is_idempotent(self):
        engine, _ = learned(benign(4))
        baseline = engine.baseline
        assert engine.freeze() is baseline
