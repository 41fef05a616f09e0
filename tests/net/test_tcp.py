"""Tests for TCP session generation."""

import pytest

from repro.net.address import IPv4Address
from repro.net.flow import FlowKey
from repro.net.packet import TcpFlags
from repro.net.tcp import build_session

C = IPv4Address("10.0.0.1")
S = IPv4Address("10.0.0.2")


class TestBuildSession:
    def test_session_establishes_and_closes(self):
        pkts = build_session(C, S, 1000, 80, request=b"GET / HTTP/1.0\r\n\r\n",
                             response=b"HTTP/1.0 200 OK\r\n\r\nhi")
        assert len({FlowKey.of(p) for p in pkts}) == 1
        # three-way handshake, each step acknowledging the previous one
        syn, syn_ack, ack = pkts[:3]
        assert (syn.src, syn.flag_bits) == (C, TcpFlags.SYN)
        assert (syn_ack.src, syn_ack.flag_bits, syn_ack.ack) == (
            S, TcpFlags.SYN | TcpFlags.ACK, syn.seq + 1)
        assert (ack.src, ack.flag_bits, ack.ack) == (
            C, TcpFlags.ACK, syn_ack.seq + 1)
        assert all(p.has_flag(TcpFlags.ACK) for p in pkts[1:])
        assert not any(p.has_flag(TcpFlags.RST) for p in pkts)
        # each direction's sequence numbers advance by the bytes sent,
        # plus one for SYN and for FIN
        next_seq = {C: syn.seq, S: syn_ack.seq}
        fins = []
        for i, p in enumerate(pkts):
            assert p.seq == next_seq[p.src]
            next_seq[p.src] += (p.payload_len + p.has_flag(TcpFlags.SYN)
                                + p.has_flag(TcpFlags.FIN))
            if p.has_flag(TcpFlags.FIN):
                fins.append(i)
        # both ends close, and each FIN is acknowledged by the peer
        assert {pkts[i].src for i in fins} == {C, S}
        for i in fins:
            fin = pkts[i]
            assert any(p.src != fin.src and p.ack == fin.seq + 1
                       for p in pkts[i + 1:])
        assert sum(p.payload_len for p in pkts if p.src == C) == 18
        assert sum(p.payload_len for p in pkts if p.src == S) == 21

    def test_segmentation_respects_mss(self):
        pkts = build_session(C, S, 1, 2, request=b"x" * 3500, mss=1000)
        data = [p for p in pkts if p.payload and p.src == C]
        assert [len(p.payload) for p in data] == [1000, 1000, 1000, 500]

    def test_reassembly_of_generated_session(self):
        req = bytes(range(256)) * 7
        pkts = build_session(C, S, 1, 2, request=req, mss=100)
        segs = sorted((p for p in pkts if p.src == C and p.payload),
                      key=lambda p: p.seq)
        seq = 1001  # isn_client + 1
        for p in segs:
            assert p.seq == seq
            seq += len(p.payload)
        assert b"".join(p.payload for p in segs) == req

    def test_attack_id_propagates(self):
        pkts = build_session(C, S, 1, 2, request=b"evil", attack_id="exp-1")
        assert all(p.attack_id == "exp-1" for p in pkts)

    def test_no_teardown_option(self):
        pkts = build_session(C, S, 1, 2, teardown=False)
        assert not any(p.has_flag(TcpFlags.FIN) for p in pkts)

    def test_bad_mss(self):
        with pytest.raises(ValueError):
            build_session(C, S, 1, 2, mss=0)
