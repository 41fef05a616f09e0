"""Tests for arrival generators and site profiles."""

from collections import defaultdict

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.address import IPv4Address, Subnet
from repro.net.flow import FlowKey
from repro.net.packet import Protocol, TcpFlags
from repro.traffic.generators import (
    constant_rate_arrivals,
    onoff_arrivals,
    poisson_arrivals,
)
from repro.traffic.profiles import ClusterProfile, EcommerceProfile


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestGenerators:
    def test_poisson_count_near_expectation(self, rng):
        times = poisson_arrivals(rng, rate_per_s=100.0, duration_s=50.0)
        assert abs(len(times) - 5000) < 300
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0 and times[-1] < 50.0

    def test_poisson_zero_rate(self, rng):
        assert len(poisson_arrivals(rng, 0.0, 10.0)) == 0

    def test_poisson_start_offset(self, rng):
        times = poisson_arrivals(rng, 10.0, 5.0, start=100.0)
        assert np.all(times >= 100.0) and np.all(times < 105.0)

    def test_poisson_bad_args(self, rng):
        with pytest.raises(ConfigurationError):
            poisson_arrivals(rng, -1.0, 10.0)
        with pytest.raises(ConfigurationError):
            poisson_arrivals(rng, 1.0, 0.0)

    def test_constant_rate_exact_spacing(self):
        times = constant_rate_arrivals(10.0, 1.0)
        assert len(times) == 10
        assert np.allclose(np.diff(times), 0.1)

    def test_constant_rate_jitter_bounded(self, rng):
        times = constant_rate_arrivals(100.0, 10.0, jitter_rng=rng, jitter_frac=0.05)
        base = np.arange(1000) * 0.01
        assert np.all(times >= base)
        assert np.all(times <= base + 0.0005 + 1e-12)

    def test_constant_rate_bad_args(self, rng):
        with pytest.raises(ConfigurationError):
            constant_rate_arrivals(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            constant_rate_arrivals(1.0, 1.0, jitter_rng=rng, jitter_frac=1.5)

    def test_onoff_burstiness(self, rng):
        times = onoff_arrivals(rng, on_rate_per_s=1000.0, duration_s=60.0,
                               mean_on_s=0.5, mean_off_s=5.0)
        assert len(times) > 0
        # bursty: mean rate well below on-rate
        assert len(times) / 60.0 < 500.0
        assert np.all(times >= 0) and np.all(times <= 60.0)

    def test_onoff_bad_args(self, rng):
        with pytest.raises(ConfigurationError):
            onoff_arrivals(rng, -1.0, 10.0)
        with pytest.raises(ConfigurationError):
            onoff_arrivals(rng, 1.0, 10.0, mean_on_s=0)


class TestClusterProfile:
    def _nodes(self, n=4):
        return list(Subnet("10.0.0.0/24").hosts(n))

    def test_generates_ordered_benign_trace(self, rng):
        trace = ClusterProfile(self._nodes()).generate(5.0, rng)
        assert len(trace) > 0
        times = [r.time for r in trace]
        assert times == sorted(times)
        assert sum(1 for _, p in trace if p.attack_id) == 0

    def test_telemetry_flows_to_master(self, rng):
        nodes = self._nodes()
        trace = ClusterProfile(nodes, control_rate_per_s=0, heartbeat_hz=0).generate(2.0, rng)
        udp = [r.packet for r in trace if r.packet.proto is Protocol.UDP]
        assert udp
        assert all(p.dst == nodes[0] for p in udp)
        assert all(p.dport == 7000 for p in udp)

    def test_telemetry_rate_scales(self, rng):
        nodes = self._nodes()
        base = ClusterProfile(nodes, control_rate_per_s=0, heartbeat_hz=0)
        double = ClusterProfile(nodes, control_rate_per_s=0, heartbeat_hz=0,
                                rate_scale=2.0)
        n1 = len(base.generate(5.0, np.random.default_rng(1)))
        n2 = len(double.generate(5.0, np.random.default_rng(1)))
        assert n2 == pytest.approx(2 * n1, rel=0.05)

    def test_control_sessions_are_valid_tcp(self, rng):
        nodes = self._nodes()
        profile = ClusterProfile(nodes, telemetry_hz=0.001, control_rate_per_s=5.0,
                                 heartbeat_hz=0)
        trace = profile.generate(5.0, rng)
        flows = defaultdict(list)
        for r in trace:
            if r.packet.proto is Protocol.TCP:
                flows[FlowKey.of(r.packet)].append(r.packet)
        assert len(flows) > 0
        for pkts in flows.values():  # every session completes its handshake
            syn, syn_ack, ack = pkts[:3]
            assert syn.flag_bits == TcpFlags.SYN
            assert syn_ack.flag_bits == TcpFlags.SYN | TcpFlags.ACK
            assert (syn_ack.src, syn_ack.ack) == (syn.dst, syn.seq + 1)
            assert ack.flag_bits == TcpFlags.ACK
            assert (ack.src, ack.ack) == (syn.src, syn_ack.seq + 1)

    def test_needs_two_nodes(self):
        with pytest.raises(ConfigurationError):
            ClusterProfile(self._nodes(1))

    def test_deterministic_given_seed(self):
        nodes = self._nodes()
        t1 = ClusterProfile(nodes).generate(3.0, np.random.default_rng(5))
        t2 = ClusterProfile(nodes).generate(3.0, np.random.default_rng(5))
        assert len(t1) == len(t2)
        assert [r.time for r in t1] == [r.time for r in t2]
        assert [r.packet.payload for r in t1] == [r.packet.payload for r in t2]


class TestEcommerceProfile:
    def test_http_sessions_against_server(self, rng):
        server = IPv4Address("10.0.0.10")
        trace = EcommerceProfile(server, smtp_rate_per_s=0, bulk_rate_per_s=0).generate(5.0, rng)
        tcp80 = [r.packet for r in trace
                 if r.packet.proto is Protocol.TCP and 80 in (r.packet.dport, r.packet.sport)]
        assert tcp80
        payloads = b"".join(p.payload or b"" for p in tcp80)
        assert b"HTTP/1.0" in payloads
        assert b"Host:" in payloads

    def test_clients_outside_lan(self, rng):
        server = IPv4Address("10.0.0.10")
        profile = EcommerceProfile(server, client_subnet="198.51.100.0/24",
                                   smtp_rate_per_s=0, bulk_rate_per_s=0)
        trace = profile.generate(3.0, rng)
        client_sub = Subnet("198.51.100.0/24")
        initiators = {r.packet.src for r in trace if r.packet.dport == 80}
        assert initiators
        assert all(c in client_sub for c in initiators)

    def test_smtp_present(self, rng):
        server = IPv4Address("10.0.0.10")
        profile = EcommerceProfile(server, session_rate_per_s=0.0,
                                   smtp_rate_per_s=3.0, bulk_rate_per_s=0)
        trace = profile.generate(10.0, rng)
        assert any(r.packet.dport == 25 for r in trace)

    def test_rate_scale_validated(self):
        with pytest.raises(ConfigurationError):
            EcommerceProfile(IPv4Address("10.0.0.1"), rate_scale=0)
