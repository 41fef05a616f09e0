"""The trace data plane: batched codec vs the v1 loops, stream replay
vs eager scheduling, and the cached trace statistics.

The batched ``to_bytes``/``from_bytes`` pair must be *byte-identical*
(encode) and *field-identical* (decode) to the per-record
``write``/``read`` loops of the ``tests/oracles/trace_v1.py`` oracle, over
arbitrary traces -- including payload-less packets, logical-length-only
packets, and attack labels.  :meth:`Trace.replay` must deliver the same
events in the same order as the oracle's eager per-record scheduling,
including ties against unrelated events, for recorded traces and for
generated load traces, whose packets are built at delivery.  Every way a
trace gets its times rejects a NaN or infinite one.
"""

import io
import math
import pathlib
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.eval.throughput import make_load_trace
from repro.net.address import IPv4Address
from repro.net.packet import Packet, Protocol, TcpFlags
from repro.net.trace import Trace
from repro.sim.engine import Engine
from tests.oracles import trace_v1

A = IPv4Address("10.0.0.1")
B = IPv4Address("10.0.0.2")


# ----------------------------------------------------------------------
# random traces
# ----------------------------------------------------------------------
payloads = (st.none()
            | st.binary(min_size=1, max_size=60)
            | st.just(b"GET /index.html HTTP/1.0\r\n"))


@st.composite
def traces(draw):
    trace = Trace(draw(st.sampled_from(("t", "bench", "scenario"))))
    t = 0.0
    for _ in range(draw(st.integers(0, 25))):
        t += draw(st.sampled_from((0.0, 0.001, 0.5)))
        payload = draw(payloads)
        plen = None
        if payload is None and draw(st.booleans()):
            plen = draw(st.integers(0, 1500))  # logical-length-only packet
        trace.append(t, Packet(
            src=draw(st.sampled_from((A, B))),
            dst=draw(st.sampled_from((A, B))),
            sport=draw(st.sampled_from((0, 80, 40000))),
            dport=draw(st.sampled_from((0, 80, 7000))),
            proto=draw(st.sampled_from((Protocol.TCP, Protocol.UDP,
                                        Protocol.ICMP))),
            flags=draw(st.sampled_from((TcpFlags.NONE, TcpFlags.SYN,
                                        TcpFlags.ACK | TcpFlags.PSH))),
            seq=draw(st.sampled_from((0, 1000))),
            payload=payload, payload_len=plen,
            attack_id=draw(st.sampled_from((None, "a1", "flood-2")))))
    return trace


def fields(trace):
    """Every codec-visible field of every record."""
    return [(t, p.src.value, p.dst.value, p.sport, p.dport, p.proto,
             p.flags, p.seq, p.ack, p.payload, p.payload_len, p.attack_id)
            for t, p in trace]


class TestCodecEquivalence:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace=traces())
    def test_batched_encode_matches_v1_bytes(self, trace):
        buf = io.BytesIO()
        trace_v1.write(trace, buf)
        assert trace.to_bytes() == buf.getvalue()

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace=traces())
    def test_batched_decode_matches_v1_fields(self, trace):
        data = trace.to_bytes()
        batched = Trace.from_bytes(data, name=trace.name)
        looped = trace_v1.read(io.BytesIO(data), trace.name)
        assert fields(batched) == fields(looped)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace=traces())
    def test_round_trip_preserves_fields(self, trace):
        decoded = Trace.from_bytes(trace.to_bytes(), name=trace.name)
        assert fields(decoded) == fields(trace)
        assert decoded.total_bytes == trace.total_bytes
        assert ([p.attack_id for _, p in decoded]
                == [p.attack_id for _, p in trace])

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace=traces(), cut=st.integers(1, 40))
    def test_truncation_raises_like_v1(self, trace, cut):
        data = trace.to_bytes()
        if cut >= len(data):
            return
        bad = data[:-cut]
        with pytest.raises(TraceFormatError) as batched_err:
            Trace.from_bytes(bad)
        with pytest.raises(TraceFormatError) as looped_err:
            trace_v1.read(io.BytesIO(bad), "trace")
        assert str(batched_err.value) == str(looped_err.value)


class TestSaveLoadPaths:
    def _trace(self):
        trace = Trace("disk")
        trace.append(0.0, Packet(src=A, dst=B, payload=b"hello"))
        trace.append(0.5, Packet(src=B, dst=A, attack_id="a1",
                                 payload_len=900))
        return trace

    def test_pathlike_round_trip(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "t.rtrc"          # os.PathLike, not str
        trace.save(path)
        loaded = Trace.load(path)
        assert fields(loaded) == fields(trace)

    def test_str_path_round_trip(self, tmp_path):
        trace = self._trace()
        path = str(tmp_path / "t.rtrc")
        trace.save(path)
        assert fields(Trace.load(path)) == fields(trace)

    def test_file_object_round_trip(self, tmp_path):
        trace = self._trace()
        with open(tmp_path / "t.rtrc", "wb") as fh:
            trace.save(fh)
        with open(tmp_path / "t.rtrc", "rb") as fh:
            assert fields(Trace.load(fh, name="disk")) == fields(trace)

    def test_load_rejects_raw_trace_bytes(self):
        data = self._trace().to_bytes()
        with pytest.raises(TraceFormatError, match="from_bytes"):
            Trace.load(data)

    def test_load_empty_file(self, tmp_path):
        # empty files cannot be mmapped; the fallback must still produce
        # the same "truncated trace header" failure as the loop reader
        path = tmp_path / "empty.rtrc"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError, match="truncated"):
            Trace.load(path)


class TestCachedStatistics:
    def test_total_bytes_invalidated_by_append(self):
        trace = Trace()
        p1 = Packet(src=A, dst=B, payload=b"xxxx")
        trace.append(0.0, p1)
        assert trace.total_bytes == p1.wire_size
        p2 = Packet(src=A, dst=B, payload_len=100)
        trace.append(1.0, p2)
        assert trace.total_bytes == p1.wire_size + p2.wire_size

    def test_attack_count_invalidated_by_extend(self):
        trace = Trace()
        trace.append(0.0, Packet(src=A, dst=B, attack_id="a1"))
        assert sum(1 for _, p in trace if p.attack_id) == 1
        trace.extend([(1.0, Packet(src=A, dst=B, attack_id="a2")),
                      (2.0, Packet(src=A, dst=B))])
        assert sum(1 for _, p in trace if p.attack_id) == 2

    def test_merge_preserves_statistics(self):
        t1, t2 = Trace("a"), Trace("b")
        t1.append(0.0, Packet(src=A, dst=B, payload=b"123"))
        t2.append(0.5, Packet(src=B, dst=A, attack_id="x", payload=b"45"))
        merged = Trace.merge([t1, t2])
        assert merged.total_bytes == t1.total_bytes + t2.total_bytes
        assert sum(1 for _, p in merged if p.attack_id) == 1
        assert [t for t, _ in merged] == [0.0, 0.5]


# ----------------------------------------------------------------------
# replay equivalence
# ----------------------------------------------------------------------
def replay_log(trace, replay, speedup=1.0, start_at=0.0, competing=True):
    """Event log of ``replay(trace, engine, sink, start_at, speedup)``, with
    competing same-time events interleaved and one event scheduled from
    inside the sink."""
    engine = Engine()
    log = []
    if competing:
        for t, _ in trace:
            at = start_at + (t - trace[0].time) / speedup
            engine.schedule_at(at, log.append, ("tick", round(at, 9)))
    scheduled_inner = []

    def sink(pkt):
        log.append(("pkt", pkt.src.value, pkt.sport, pkt.dport, pkt.payload,
                    pkt.payload_len, engine.now))
        if not scheduled_inner:
            scheduled_inner.append(True)
            engine.schedule(0.0, log.append, ("inner", engine.now))

    replay(trace, engine, sink, start_at, speedup)
    engine.run()
    return log


@st.composite
def replayable_traces(draw):
    trace = Trace("r")
    t = 0.0
    for i in range(draw(st.integers(1, 15))):
        t += draw(st.sampled_from((0.0, 0.001, 0.25)))  # 0.0 forces ties
        trace.append(t, Packet(src=A, dst=B, sport=i, dport=80))
    return trace


@st.composite
def load_traces(draw):
    """Generated load traces of at least one record."""
    return make_load_trace(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        draw(st.sampled_from((1000.0, 4000.0, 20000.0))),
        draw(st.sampled_from((0.001, 0.002, 0.005))), A,
        payload_mode=draw(st.sampled_from(("http", "random", "logical"))),
        payload_size=draw(st.sampled_from((0, 40, 400))),
        src_pool=draw(st.sampled_from((1, 64, 300))))


class TestReplayEquivalence:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace=replayable_traces(),
           speedup=st.sampled_from((0.5, 1.0, 4.0)),
           start_at=st.sampled_from((0.0, 3.0)))
    def test_batched_equals_scheduled(self, trace, speedup, start_at):
        assert (replay_log(trace, Trace.replay, speedup, start_at)
                == replay_log(trace, trace_v1.replay_scheduled, speedup,
                              start_at))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace=load_traces(),
           speedup=st.sampled_from((0.5, 1.0, 4.0)),
           start_at=st.sampled_from((0.0, 3.0)))
    def test_generated_load_equals_scheduled(self, trace, speedup, start_at):
        assert (replay_log(trace, Trace.replay, speedup, start_at)
                == replay_log(trace, trace_v1.replay_scheduled, speedup,
                              start_at))

    def test_speedup_validation(self):
        trace = Trace("m")
        trace.append(0.0, Packet(src=A, dst=B))
        engine = Engine()
        with pytest.raises(TraceFormatError):
            trace.replay(engine, lambda p: None, speedup=0.0)
        assert engine.pending == 0

    def test_empty_trace_is_a_noop(self):
        engine = Engine()
        assert Trace("e").replay(engine, lambda p: None) is None
        assert engine.pending == 0


class TestNonFiniteTimes:
    """A NaN time compares false both ways and would slip past the order
    check, then move the replay clock to NaN; every way a trace gets its
    times refuses it, and infinities too."""

    BAD = [math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("bad", BAD)
    def test_append(self, bad):
        trace = Trace()
        with pytest.raises(TraceFormatError, match="not finite"):
            trace.append(bad, Packet(src=A, dst=B))
        trace.append(0.0, Packet(src=A, dst=B))
        with pytest.raises(TraceFormatError, match="not finite"):
            trace.append(bad, Packet(src=A, dst=B))
        assert len(trace) == 1

    @pytest.mark.parametrize("bad", BAD)
    def test_from_sorted(self, bad):
        with pytest.raises(TraceFormatError, match="not finite"):
            Trace.from_sorted([0.0, bad, 1.0],
                              [Packet(src=A, dst=B) for _ in range(3)])

    @pytest.mark.parametrize("bad", BAD)
    def test_decode(self, bad, tmp_path):
        trace = Trace()
        for i in range(3):
            trace.append(float(i), Packet(src=A, dst=B, sport=i))
        data = bytearray(trace.to_bytes())
        # the second record's time (no payload or label bytes in between)
        offset = trace_v1.HEADER.size + trace_v1.RECORD.size
        data[offset:offset + 8] = struct.pack("<d", bad)
        with pytest.raises(TraceFormatError, match="not finite"):
            Trace.from_bytes(bytes(data))
        path = tmp_path / "bad.rtrc"
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="not finite"):
            Trace.load(path)


def test_decode_rejects_times_that_go_back(tmp_path):
    """Decoding refuses a time that precedes the one before it, with the
    message ``append`` and ``from_sorted`` give, so every trace that
    reaches replay is sorted."""
    trace = Trace()
    for i in range(3):
        trace.append(float(i), Packet(src=A, dst=B, sport=i))
    data = bytearray(trace.to_bytes())
    # the third record's time (no payload or label bytes in between)
    offset = trace_v1.HEADER.size + 2 * trace_v1.RECORD.size
    data[offset:offset + 8] = struct.pack("<d", 0.5)
    message = "record at t=0.5 precedes previous t=1.0"
    with pytest.raises(TraceFormatError, match=message):
        Trace.from_bytes(bytes(data))
    path = tmp_path / "unsorted.rtrc"
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError, match=message):
        Trace.load(path)
    with pytest.raises(TraceFormatError, match=message):
        Trace.from_sorted([0.0, 1.0, 0.5], [tp.packet for tp in trace])


@pytest.mark.slow
class TestDataplaneDeep:
    """The long lane: more examples against the v1 oracle (CI's -m slow
    lane)."""

    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace=traces())
    def test_codec_matches_v1_deep(self, trace):
        buf = io.BytesIO()
        trace_v1.write(trace, buf)
        data = buf.getvalue()
        assert trace.to_bytes() == data
        assert (fields(Trace.from_bytes(data, name=trace.name))
                == fields(trace_v1.read(io.BytesIO(data), trace.name)))

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace=replayable_traces(),
           speedup=st.sampled_from((0.25, 0.5, 1.0, 3.0, 4.0)),
           start_at=st.sampled_from((0.0, 0.001, 3.0)))
    def test_replay_matches_scheduled_deep(self, trace, speedup, start_at):
        assert (replay_log(trace, Trace.replay, speedup, start_at)
                == replay_log(trace, trace_v1.replay_scheduled, speedup,
                              start_at))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace=load_traces(),
           speedup=st.sampled_from((0.25, 0.5, 1.0, 3.0, 4.0)),
           start_at=st.sampled_from((0.0, 0.001, 3.0)))
    def test_generated_load_matches_scheduled_deep(self, trace, speedup,
                                                   start_at):
        assert (replay_log(trace, Trace.replay, speedup, start_at)
                == replay_log(trace, trace_v1.replay_scheduled, speedup,
                              start_at))
