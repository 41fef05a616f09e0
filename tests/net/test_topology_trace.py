"""Tests for the LAN testbed topology and the trace format."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TraceFormatError
from repro.net.address import IPv4Address
from repro.net.node import BorderRouter
from repro.net.packet import Packet, Protocol, TcpFlags
from repro.net.topology import LanTestbed
from repro.net.trace import Trace
from repro.sim.engine import Engine

def mk(src, dst, **kw):
    kw.setdefault("sport", 1)
    kw.setdefault("dport", 2)
    return Packet(src=src, dst=dst, **kw)


class TestLanTestbed:
    def test_hosts_allocated_in_subnet(self):
        tb = LanTestbed(Engine(), subnet="10.1.0.0/24", n_hosts=4)
        assert len(tb.hosts) == 4
        assert all(h.address in tb.subnet for h in tb.hosts)
        assert len({h.address for h in tb.hosts}) == 4

    def test_links_wire_the_figure1_structure(self):
        eng = Engine()
        tb = LanTestbed(eng, n_hosts=3)
        # a border router in front of the protected hosts, all on one clock
        assert isinstance(tb.router, BorderRouter)
        assert [h.name for h in tb.hosts] == ["host0", "host1", "host2"]
        assert all(n.engine is eng for n in (tb.router, *tb.hosts))

    def test_bad_host_count(self):
        with pytest.raises(ConfigurationError):
            LanTestbed(Engine(), n_hosts=0)


class TestTrace:
    def _sample_trace(self):
        tr = Trace("sample")
        a, b = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")
        tr.append(0.0, mk(a, b, payload=b"hello", flags=TcpFlags.SYN, proto=Protocol.TCP))
        tr.append(0.5, mk(b, a, proto=Protocol.UDP, payload_len=900))
        tr.append(1.5, mk(a, b, proto=Protocol.ICMP, sport=0, dport=0,
                          attack_id="ping-sweep-1"))
        return tr

    def test_append_enforces_time_order(self):
        tr = self._sample_trace()
        with pytest.raises(TraceFormatError):
            tr.append(1.0, mk(IPv4Address(1), IPv4Address(2)))

    def test_from_sorted_matches_append(self):
        ref = self._sample_trace()
        tr = Trace.from_sorted(np.array([r.time for r in ref]),
                               [r.packet for r in ref], name="sample")
        assert tr.name == "sample"
        assert list(tr) == list(ref)
        assert all(type(r.time) is float for r in tr)
        assert len(Trace.from_sorted(np.array([]), [])) == 0

    def test_from_sorted_enforces_time_order(self):
        a, b = IPv4Address(1), IPv4Address(2)
        with pytest.raises(TraceFormatError, match="t=0.5 precedes .* t=1.0"):
            Trace.from_sorted(np.array([0.0, 1.0, 0.5, 0.2]),
                              [mk(a, b) for _ in range(4)])
        # ties are fine, as for append
        assert len(Trace.from_sorted(np.array([1.0, 1.0]),
                                     [mk(a, b), mk(b, a)])) == 2

    def test_from_sorted_needs_one_packet_per_time(self):
        a, b = IPv4Address(1), IPv4Address(2)
        for n in (1, 3):
            with pytest.raises(TraceFormatError, match="2 times"):
                Trace.from_sorted(np.array([0.0, 1.0]),
                                  [mk(a, b) for _ in range(n)])

    def test_basic_stats(self):
        tr = self._sample_trace()
        assert len(tr) == 3
        assert tr[-1].time - tr[0].time == 1.5
        assert {p.attack_id for _, p in tr if p.attack_id} == {"ping-sweep-1"}
        assert sum(1 for _, p in tr if p.attack_id) == 1
        assert tr.total_bytes == sum(r.packet.wire_size for r in tr)

    def test_roundtrip_bytes(self):
        tr = self._sample_trace()
        loaded = Trace.from_bytes(tr.to_bytes())
        assert len(loaded) == len(tr)
        for orig, new in zip(tr, loaded):
            assert new.time == orig.time
            p, q = orig.packet, new.packet
            assert (q.src, q.dst, q.sport, q.dport) == (p.src, p.dst, p.sport, p.dport)
            assert q.proto is p.proto
            assert q.flags == p.flags
            assert q.payload == p.payload
            assert q.payload_len == p.payload_len
            assert q.attack_id == p.attack_id

    def test_roundtrip_file(self, tmp_path):
        tr = self._sample_trace()
        path = tmp_path / "t.rtrc"
        tr.save(str(path))
        loaded = Trace.load(str(path))
        assert len(loaded) == 3

    def test_logical_payload_survives_roundtrip(self):
        tr = Trace()
        tr.append(0.0, mk(IPv4Address(1), IPv4Address(2), payload_len=5000))
        p = Trace.from_bytes(tr.to_bytes())[0].packet
        assert p.payload is None
        assert p.payload_len == 5000

    def test_bad_magic_rejected(self):
        with pytest.raises(TraceFormatError):
            Trace.from_bytes(b"XXXX" + b"\x00" * 16)

    def test_truncated_rejected(self):
        data = self._sample_trace().to_bytes()
        with pytest.raises(TraceFormatError):
            Trace.from_bytes(data[:-3])
        with pytest.raises(TraceFormatError):
            Trace.from_bytes(data[:5])

    def test_merge_orders_by_time(self):
        a, b = IPv4Address(1), IPv4Address(2)
        t1, t2 = Trace("a"), Trace("b")
        t1.append(0.0, mk(a, b))
        t1.append(2.0, mk(a, b))
        t2.append(1.0, mk(b, a))
        merged = Trace.merge([t1, t2])
        assert [r.time for r in merged] == [0.0, 1.0, 2.0]

    def test_replay_delivers_at_relative_times(self):
        eng = Engine()
        tr = self._sample_trace()
        got = []
        tr.replay(eng, lambda p: got.append(eng.now), start_at=10.0)
        eng.run()
        assert got == [10.0, 10.5, 11.5]

    def test_replay_speedup(self):
        eng = Engine()
        tr = self._sample_trace()
        got = []
        tr.replay(eng, lambda p: got.append(eng.now), speedup=2.0)
        eng.run()
        assert got == [0.0, 0.25, 0.75]

    def test_replay_bad_speedup(self):
        with pytest.raises(TraceFormatError):
            self._sample_trace().replay(Engine(), lambda p: None, speedup=0)

    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.binary(max_size=64),
        st.one_of(st.none(), st.text(min_size=1, max_size=10)),
    ), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip(self, rows):
        tr = Trace()
        rows.sort(key=lambda r: r[0])
        for t, src, dst, payload, attack in rows:
            tr.append(t, Packet(src=IPv4Address(src), dst=IPv4Address(dst),
                                payload=payload or None, attack_id=attack))
        loaded = Trace.from_bytes(tr.to_bytes())
        assert len(loaded) == len(tr)
        for orig, new in zip(tr, loaded):
            assert new.time == orig.time
            assert new.packet.payload == orig.packet.payload
            assert new.packet.attack_id == orig.packet.attack_id
