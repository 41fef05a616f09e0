"""Tests for the link queueing model and nodes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.address import IPv4Address
from repro.net.link import Link
from repro.net.node import BorderRouter, Host, Switch
from repro.net.packet import Packet
from repro.sim.engine import Engine

A = IPv4Address("10.0.0.1")
B = IPv4Address("10.0.0.2")
EXT = IPv4Address("192.0.2.7")


def mk(src=A, dst=B, n=100):
    return Packet(src=src, dst=dst, sport=1, dport=2, payload_len=n)


class TestLink:
    def test_delivery_with_latency(self):
        eng = Engine()
        got = []
        link = Link(eng, bandwidth_bps=1e6, propagation_delay=0.01,
                    sink=lambda p: got.append((eng.now, p)))
        pkt = mk(n=946)  # wire_size = 1000 bytes -> 8 ms at 1 Mbps
        assert link.send(pkt)
        eng.run()
        assert len(got) == 1
        t, p = got[0]
        assert p is pkt
        assert t == pytest.approx(0.008 + 0.01)

    def test_serialization_queueing(self):
        eng = Engine()
        times = []
        link = Link(eng, bandwidth_bps=1e6, propagation_delay=0.0,
                    sink=lambda p: times.append(eng.now))
        for _ in range(3):
            link.send(mk(n=946))  # 8 ms each
        eng.run()
        assert times == pytest.approx([0.008, 0.016, 0.024])

    def test_queue_overflow_drops(self):
        eng = Engine()
        link = Link(eng, bandwidth_bps=1e3, propagation_delay=0.0,
                    queue_bytes=2000, sink=lambda p: None)
        results = [link.send(mk(n=900)) for _ in range(5)]  # ~954B each
        eng.run()
        assert results[0] is True
        assert False in results
        assert link.dropped_packets == results.count(False)
        assert link.offered_packets == 5

    def test_idle_link_accepts_even_with_zero_queue(self):
        eng = Engine()
        got = []
        link = Link(eng, bandwidth_bps=1e6, queue_bytes=0, sink=got.append)
        assert link.send(mk())
        eng.run()
        assert len(got) == 1

    def test_conservation_invariant(self):
        eng = Engine()
        link = Link(eng, bandwidth_bps=1e5, queue_bytes=4000, sink=lambda p: None)
        for _ in range(50):
            link.send(mk(n=500))
        eng.run()
        assert link._queued_bytes == 0  # nothing left in flight
        assert link.offered_packets == link.delivered_packets + link.dropped_packets
        assert link.offered_bytes == link.delivered_bytes + link.dropped_bytes

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=1.0, allow_nan=False),
                              st.integers(min_value=0, max_value=1400)),
                    min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_property_conservation_under_random_arrivals(self, arrivals):
        eng = Engine()
        delivered = []
        link = Link(eng, bandwidth_bps=5e5, queue_bytes=3000, sink=delivered.append)
        for t, n in arrivals:
            eng.schedule_at(t, link.send, mk(n=n))
        eng.run()
        assert link.offered_packets == len(arrivals)
        assert link.delivered_packets == len(delivered)
        assert link._queued_bytes == 0  # nothing left in flight
        assert link.delivered_packets + link.dropped_packets == len(arrivals)

    def test_utilization(self):
        eng = Engine()
        link = Link(eng, bandwidth_bps=1e6, propagation_delay=0.0, sink=lambda p: None)
        link.send(mk(n=946))  # 8000 bits
        eng.run(until=0.016)
        # delivered bits over the capacity of 16 ms
        assert link.delivered_bytes * 8 / (1e6 * 0.016) == pytest.approx(0.5)

    def test_bad_config(self):
        eng = Engine()
        with pytest.raises(ConfigurationError):
            Link(eng, bandwidth_bps=0)
        with pytest.raises(ConfigurationError):
            Link(eng, propagation_delay=-1)
        with pytest.raises(ConfigurationError):
            Link(eng, queue_bytes=-1)


class TestHost:
    def test_handlers_invoked(self):
        eng = Engine()
        host = Host(eng, "h", A)
        got = []
        host.on_packet(got.append)
        host.on_packet(lambda p: got.append("second"))
        pkt = mk(dst=A)
        host.receive(pkt)
        assert got == [pkt, "second"]
        assert host.received_packets == 1
        assert host.received_bytes == pkt.wire_size


class TestSwitch:
    def test_forwards_by_address(self):
        eng = Engine()
        sw = Switch(eng)
        got_a, got_b = [], []
        sw.attach(A, Link(eng, sink=got_a.append))
        sw.attach(B, Link(eng, sink=got_b.append))
        sw.receive(mk(dst=B))
        eng.run()
        assert not got_a and len(got_b) == 1
        assert sw.forwarded == 1

    def test_default_route(self):
        eng = Engine()
        sw = Switch(eng)
        got = []
        sw.default_route = Link(eng, sink=got.append)
        sw.receive(mk(dst=EXT))
        eng.run()
        assert len(got) == 1

    def test_unroutable_counted(self):
        eng = Engine()
        sw = Switch(eng)
        sw.receive(mk(dst=EXT))
        eng.run()
        assert sw.unroutable == 1

    def test_span_mirrors_copies(self):
        eng = Engine()
        sw = Switch(eng)
        forwarded, mirrored = [], []
        sw.attach(B, Link(eng, sink=forwarded.append))
        sw.add_span(Link(eng, sink=mirrored.append))
        pkt = mk(dst=B)
        sw.receive(pkt)
        eng.run()
        assert len(forwarded) == 1 and len(mirrored) == 1
        assert forwarded[0] is pkt
        assert mirrored[0] is not pkt           # a copy
        assert mirrored[0].pid != pkt.pid
        assert mirrored[0].attack_id == pkt.attack_id
        assert sw.mirrored == 1

    def test_span_drop_under_overload_loses_visibility(self):
        eng = Engine()
        sw = Switch(eng)
        mirrored = []
        sw.attach(B, Link(eng, bandwidth_bps=1e9, sink=lambda p: None))
        sw.add_span(Link(eng, bandwidth_bps=1e3, queue_bytes=500,
                         sink=mirrored.append))
        for _ in range(20):
            sw.receive(mk(dst=B, n=400))
        eng.run()
        assert len(mirrored) < 20  # SPAN port saturated; copies lost


class TestBorderRouter:
    def test_block_list(self):
        router = BorderRouter(Engine())
        router.block(EXT)
        router.block(EXT)
        assert router._blocked == {EXT.value}
