"""Tests for the packet model and flow keys."""

import pytest

from repro.errors import NetworkError
from repro.net.address import IPv4Address
from repro.net.flow import FlowKey
from repro.net.packet import Packet, Protocol, TcpFlags

A = IPv4Address("10.0.0.1")
B = IPv4Address("10.0.0.2")


def mk(src=A, dst=B, sport=1234, dport=80, **kw):
    return Packet(src=src, dst=dst, sport=sport, dport=dport, **kw)


class TestPacket:
    def test_wire_size_tcp(self):
        p = mk(payload=b"x" * 100)
        assert p.wire_size == 14 + 20 + 20 + 100

    def test_wire_size_udp_icmp(self):
        assert mk(proto=Protocol.UDP, payload_len=10).wire_size == 14 + 20 + 8 + 10
        assert mk(proto=Protocol.ICMP, sport=0, dport=0).wire_size == 14 + 20 + 8

    def test_logical_payload_without_bytes(self):
        p = mk(payload_len=5000)
        assert p.payload is None
        assert p.payload_len == 5000

    def test_payload_len_defaults_to_bytes(self):
        assert mk(payload=b"abc").payload_len == 3

    def test_payload_len_must_cover_bytes(self):
        with pytest.raises(NetworkError):
            mk(payload=b"abcd", payload_len=2)

    def test_negative_payload_len_rejected(self):
        with pytest.raises(NetworkError):
            mk(payload_len=-1)

    def test_port_range_enforced(self):
        with pytest.raises(NetworkError):
            mk(sport=70000)

    def test_address_type_enforced(self):
        with pytest.raises(NetworkError):
            Packet(src="10.0.0.1", dst=B)  # type: ignore[arg-type]

    def test_unique_pids(self):
        assert mk().pid != mk().pid

    def test_flags(self):
        p = mk(flags=TcpFlags.SYN | TcpFlags.ACK)
        assert p.has_flag(TcpFlags.SYN)
        assert p.has_flag(TcpFlags.ACK)
        assert not p.has_flag(TcpFlags.FIN)

    def test_ground_truth(self):
        assert mk().attack_id is None
        p = mk(attack_id="scan-1")
        assert p.attack_id == "scan-1"

    def test_copy_preserves_fields_fresh_pid(self):
        p = mk(payload=b"data", attack_id="a1", flags=TcpFlags.PSH)
        c = p.copy()
        assert c.pid != p.pid
        assert (c.src, c.dst, c.payload, c.attack_id, c.flags) == (
            p.src, p.dst, p.payload, p.attack_id, p.flags)


def build_one(**overrides):
    """One packet through ``Packet.build_many``, from ``mk``'s fields."""
    fields = dict(src=A, dst=B, sport=1234, dport=80, proto=Protocol.TCP,
                  flags=TcpFlags.NONE, seq=0, ack=0, payload=None,
                  payload_len=0, attack_id=None)
    fields.update(overrides)
    return next(Packet.build_many(*([v] for v in fields.values())))


class TestBuildMany:
    """The lazy bulk build runs ``Packet(...)``'s checks on every packet."""

    def test_same_fields_as_constructor(self):
        p = build_one(payload=b"abc", payload_len=3, flags=TcpFlags.SYN,
                      seq=7, attack_id="a1")
        q = mk(payload=b"abc", flags=TcpFlags.SYN, seq=7, attack_id="a1")
        assert [getattr(p, s) for s in Packet.__slots__ if s != "pid"] == [
            getattr(q, s) for s in Packet.__slots__ if s != "pid"]
        assert p.pid != q.pid

    @pytest.mark.parametrize("bad", [
        dict(src="10.0.0.1"), dict(dst=None), dict(sport=70000),
        dict(dport=-1), dict(payload_len=-1),
        dict(payload=b"abcd", payload_len=2)])
    def test_checks_run_per_packet(self, bad):
        with pytest.raises(NetworkError):
            build_one(**bad)

    def test_builds_lazily(self):
        packets = Packet.build_many([A, "bad"], [B, B], [1, 2], [80, 80],
                                    [Protocol.TCP] * 2, [TcpFlags.NONE] * 2,
                                    [0, 0], [0, 0], [None, None], [0, 0],
                                    [None, None])
        assert next(packets).sport == 1
        with pytest.raises(NetworkError):
            next(packets)


class TestFlowKey:
    def test_bidirectional_canonicalization(self):
        fwd = mk()
        rev = mk(src=B, dst=A, sport=80, dport=1234)
        assert FlowKey.of(fwd) == FlowKey.of(rev)

    def test_different_flows_differ(self):
        assert FlowKey.of(mk(dport=80)) != FlowKey.of(mk(dport=443))
        assert FlowKey.of(mk()) != FlowKey.of(mk(proto=Protocol.UDP))
