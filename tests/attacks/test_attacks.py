"""Tests for the attack library."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.address import IPv4Address, Subnet
from repro.net.flow import FlowKey
from repro.net.packet import Protocol, TcpFlags
from repro.attacks import (
    ATTACK_CLASSES,
    AttackKind,
    BufferOverflowExploit,
    CgiProbe,
    HostSweep,
    IcmpTunnel,
    NovelExploit,
    OVERFLOW_MARKER,
    PortScan,
    SynFlood,
    TelnetBruteForce,
    TrustAbuse,
    UdpFlood,
    standard_attack_suite,
)
from repro.traffic.payload import shannon_entropy

ATT = IPv4Address("198.18.0.1")
TGT = IPv4Address("10.0.0.5")
TGT2 = IPv4Address("10.0.0.6")


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestBase:
    def test_unique_attack_ids(self, rng):
        a = PortScan(ATT, TGT, ports=[80])
        b = PortScan(ATT, TGT, ports=[80])
        assert a.attack_id != b.attack_id

    def test_generate_labels_all_packets(self, rng):
        attack = PortScan(ATT, TGT, ports=range(1, 20))
        trace, record = attack.generate(5.0, rng)
        assert all(r.packet.attack_id == attack.attack_id for r in trace)
        assert record.attack_id == attack.attack_id
        assert record.packets == len(trace) == 19
        assert record.start == 5.0
        assert record.end >= record.start
        assert record.end >= record.start

    def test_generate_time_shift(self, rng):
        attack = HostSweep(ATT, [TGT, TGT2], rate_pps=10.0)
        trace, record = attack.generate(100.0, rng)
        assert trace[0].time >= 100.0
        assert record.start == 100.0


class TestPortScan:
    def test_scans_all_ports_with_syn(self, rng):
        trace, _ = PortScan(ATT, TGT, ports=range(1, 101), rate_pps=1000).generate(0.0, rng)
        ports = {r.packet.dport for r in trace}
        assert ports == set(range(1, 101))
        assert all(r.packet.has_flag(TcpFlags.SYN) for r in trace)
        assert all(r.packet.src == ATT for r in trace)

    def test_rate_controls_duration(self, rng):
        trace, rec = PortScan(ATT, TGT, ports=range(1, 101), rate_pps=100.0,
                              randomize_order=False).generate(0.0, rng)
        assert rec.end - rec.start == pytest.approx(1.0, rel=0.3)

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            PortScan(ATT, TGT, ports=[])
        with pytest.raises(ConfigurationError):
            PortScan(ATT, TGT, rate_pps=0)


class TestHostSweep:
    def test_covers_all_targets_icmp(self, rng):
        targets = list(Subnet("10.0.1.0/28").hosts(10))
        trace, _ = HostSweep(ATT, targets, probes_per_host=2).generate(0.0, rng)
        assert len(trace) == 20
        assert {r.packet.dst for r in trace} == set(targets)
        assert all(r.packet.proto is Protocol.ICMP for r in trace)

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            HostSweep(ATT, [])
        with pytest.raises(ConfigurationError):
            HostSweep(ATT, [TGT], probes_per_host=0)


class TestFloods:
    def test_syn_flood_spoofed_sources(self, rng):
        flood = SynFlood(TGT, rate_pps=1000, duration_s=1.0,
                         spoof_subnet="203.0.113.0/24")
        trace, _ = flood.generate(0.0, rng)
        assert len(trace) == 1000
        spoof = Subnet("203.0.113.0/24")
        sources = {r.packet.src for r in trace}
        assert len(sources) > 100  # widely spoofed
        assert all(s in spoof for s in sources)
        assert all(r.packet.has_flag(TcpFlags.SYN) for r in trace)

    def test_syn_flood_exhausts_session_table(self, rng):
        trace, _ = SynFlood(TGT, rate_pps=500, duration_s=1.0).generate(0.0, rng)
        # A 100-entry session table overflows: the flood opens more than
        # 100 flows, and none of them gets past its SYN.
        assert len({FlowKey.of(r.packet) for r in trace}) > 100
        assert all(r.packet.flag_bits == TcpFlags.SYN for r in trace)

    def test_udp_flood_payload_modes(self, rng):
        rnd, _ = UdpFlood(ATT, TGT, rate_pps=100, duration_s=0.5,
                          payload_mode="random").generate(0.0, rng)
        logical, _ = UdpFlood(ATT, TGT, rate_pps=100, duration_s=0.5,
                              payload_mode="logical").generate(0.0, rng)
        http, _ = UdpFlood(ATT, TGT, rate_pps=100, duration_s=0.5,
                           payload_mode="http").generate(0.0, rng)
        assert all(r.packet.payload is not None for r in rnd)
        assert all(r.packet.payload is None and r.packet.payload_len == 512
                   for r in logical)
        blob = b"".join(r.packet.payload for r in http)
        assert b"HTTP/1.0" in blob
        # content realism contrast: random >> http entropy
        h_rnd = shannon_entropy(b"".join(r.packet.payload for r in rnd))
        h_http = shannon_entropy(blob)
        assert h_rnd > 7.5 > h_http

    def test_flood_bad_args(self):
        with pytest.raises(ConfigurationError):
            SynFlood(TGT, rate_pps=0)
        with pytest.raises(ConfigurationError):
            UdpFlood(ATT, TGT, payload_mode="nope")


class TestBruteForce:
    def test_attempts_and_final_success(self, rng):
        attack = TelnetBruteForce(ATT, TGT, attempts=10, rate_per_s=100, succeeds=True)
        trace, rec = attack.generate(0.0, rng)
        payloads = b"".join(r.packet.payload or b"" for r in trace)
        assert payloads.count(b"Login incorrect") == 10
        assert payloads.count(b"Last login") == 1
        assert rec.kind is AttackKind.BRUTE_FORCE
        assert all(r.packet.dport in (23,) or r.packet.sport == 23 for r in trace)

    def test_failure_only(self, rng):
        attack = TelnetBruteForce(ATT, TGT, attempts=5, succeeds=False)
        trace, _ = attack.generate(0.0, rng)
        payloads = b"".join(r.packet.payload or b"" for r in trace)
        assert b"Last login" not in payloads

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            TelnetBruteForce(ATT, TGT, attempts=0)


class TestExploits:
    def test_overflow_contains_marker(self, rng):
        trace, rec = BufferOverflowExploit(ATT, TGT).generate(0.0, rng)
        blob = b"".join(r.packet.payload or b"" for r in trace)
        assert OVERFLOW_MARKER in blob
        assert rec.kind is AttackKind.EXPLOIT
        assert not rec.novel

    def test_cgi_probe_paths_on_port_80(self, rng):
        trace, _ = CgiProbe(ATT, TGT).generate(0.0, rng)
        blob = b"".join(r.packet.payload or b"" for r in trace)
        assert b"/cgi-bin/phf" in blob
        assert b"cmd.exe" in blob
        assert all(80 in (r.packet.dport, r.packet.sport) for r in trace)

    def test_novel_exploit_avoids_known_markers(self, rng):
        trace, rec = NovelExploit(ATT, TGT).generate(0.0, rng)
        blob = b"".join(r.packet.payload or b"" for r in trace)
        assert OVERFLOW_MARKER not in blob
        assert b"cgi-bin" not in blob
        assert rec.novel
        assert shannon_entropy(blob) > 7.0

    def test_overflow_sled_too_small(self):
        with pytest.raises(ConfigurationError):
            BufferOverflowExploit(ATT, TGT, sled_size=2)


class TestInsiderAndTunnel:
    def test_trust_abuse_uses_cluster_protocol(self, rng):
        trace, rec = TrustAbuse(TGT2, TGT, commands=2).generate(0.0, rng)
        assert rec.novel
        assert rec.kind is AttackKind.INSIDER
        blob = b"".join(r.packet.payload or b"" for r in trace)
        assert b"exfil" in blob or b"disable_log" in blob
        assert all(7001 in (r.packet.dport, r.packet.sport) for r in trace)

    def test_icmp_tunnel_high_entropy_pings(self, rng):
        tunnel = IcmpTunnel(TGT2, ATT, total_bytes=4096, chunk=512)
        trace, rec = tunnel.generate(0.0, rng)
        assert rec.kind is AttackKind.TUNNEL
        requests = [r.packet for r in trace if r.packet.src == TGT2]
        assert all(p.proto is Protocol.ICMP for p in requests)
        assert sum(p.payload_len for p in requests) == 4096
        blob = b"".join(p.payload for p in requests)
        assert shannon_entropy(blob) > 7.0

    def test_tunnel_bad_args(self):
        with pytest.raises(ConfigurationError):
            IcmpTunnel(TGT2, ATT, total_bytes=0)


class TestCatalog:
    def test_registry_complete(self):
        assert len(ATTACK_CLASSES) == 11
        covered = {cls.kind for cls in ATTACK_CLASSES.values()}
        assert covered == set(AttackKind)

    def test_standard_suite_covers_all_kinds(self, rng):
        hosts = list(Subnet("10.0.0.0/24").hosts(4))
        suite = standard_attack_suite(ATT, hosts)
        kinds = {attack.kind for _, attack in suite}
        assert kinds == set(AttackKind)
        starts = [t for t, _ in suite]
        assert starts == sorted(starts)

    def test_standard_suite_without_dos(self):
        hosts = list(Subnet("10.0.0.0/24").hosts(4))
        suite = standard_attack_suite(ATT, hosts, include_dos=False)
        assert all(a.kind is not AttackKind.DOS for _, a in suite)

    def test_standard_suite_needs_hosts(self):
        with pytest.raises(ConfigurationError):
            standard_attack_suite(ATT, list(Subnet("10.0.0.0/24").hosts(2)))


class TestScenarioMixer:
    def test_build_merges_and_labels(self, rng):
        from repro.traffic import ClusterProfile, ScenarioBuilder

        nodes = list(Subnet("10.0.0.0/24").hosts(4))
        builder = ScenarioBuilder("mix", duration_s=20.0, seed=3)
        builder.add_background(ClusterProfile(nodes))
        builder.add_attack(5.0, PortScan(ATT, nodes[0], ports=range(1, 30)))
        builder.add_attack(10.0, HostSweep(ATT, nodes))
        scenario = builder.build()
        assert len(scenario.attacks) == 2
        assert ({p.attack_id for _, p in scenario.trace if p.attack_id}
                == scenario.attack_ids)
        times = [r.time for r in scenario.trace]
        assert times == sorted(times)
        assert any(not p.attack_id for _, p in scenario.trace)
        assert "mix" in scenario.summary()

    def test_scenario_deterministic(self):
        from repro.traffic import ClusterProfile, ScenarioBuilder

        nodes = list(Subnet("10.0.0.0/24").hosts(3))

        def build():
            b = ScenarioBuilder("d", duration_s=10.0, seed=9)
            b.add_background(ClusterProfile(nodes))
            b.add_attack(2.0, PortScan(ATT, nodes[0], ports=range(1, 10)))
            return b.build()

        s1, s2 = build(), build()
        assert len(s1.trace) == len(s2.trace)
        assert [r.time for r in s1.trace] == [r.time for r in s2.trace]

    def test_attack_beyond_duration_rejected(self):
        from repro.traffic import ScenarioBuilder

        b = ScenarioBuilder("x", duration_s=10.0)
        with pytest.raises(ConfigurationError):
            b.add_attack(11.0, PortScan(ATT, TGT, ports=[1]))
