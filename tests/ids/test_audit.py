"""Tests for host audit trails and audit-driven insider detection."""

import numpy as np
import pytest

from repro.attacks import TrustAbuse
from repro.ids.audit import (
    C2_EVENTS,
    KNOWN_CLUSTER_COMMANDS,
    NOMINAL_EVENTS,
    AuditEvent,
    AuditEventType,
    AuditTrail,
    packet_to_events,
)
from repro.ids.host import HostAgent, LoggingLevel
from repro.net.address import IPv4Address
from repro.net.node import Host
from repro.net.packet import Packet, Protocol, TcpFlags
from repro.sim.engine import Engine
from repro.traffic.payload import cluster_command, telnet_login

ATT = IPv4Address("198.18.0.1")
TGT = IPv4Address("10.0.0.5")


class TestPacketToEvents:
    def test_syn_logs_connection(self):
        pkt = Packet(src=ATT, dst=TGT, dport=80, proto=Protocol.TCP,
                     flags=TcpFlags.SYN)
        events = packet_to_events(pkt, 1.0)
        assert [e.etype for e in events] == [AuditEventType.CONNECTION]
        assert events[0].subject == str(ATT)
        assert "port 80" in events[0].detail

    def test_synack_not_logged_as_connection(self):
        pkt = Packet(src=TGT, dst=ATT, proto=Protocol.TCP,
                     flags=TcpFlags.SYN | TcpFlags.ACK)
        assert packet_to_events(pkt, 0.0) == []

    def test_login_events(self):
        fail = Packet(src=ATT, dst=TGT,
                      payload=telnet_login("root", "x", success=False))
        ok = Packet(src=ATT, dst=TGT,
                    payload=telnet_login("root", "y", success=True))
        assert packet_to_events(fail, 0.0)[0].etype is AuditEventType.LOGIN_FAILURE
        assert packet_to_events(ok, 0.0)[0].etype is AuditEventType.LOGIN_SUCCESS

    def test_command_only_at_c2_depth(self):
        pkt = Packet(src=ATT, dst=TGT, payload=cluster_command(1, "exfil"))
        nominal = packet_to_events(pkt, 0.0, NOMINAL_EVENTS)
        c2 = packet_to_events(pkt, 0.0, C2_EVENTS)
        assert nominal == []
        assert [e.etype for e in c2] == [AuditEventType.COMMAND]
        assert c2[0].detail == "exfil"

    def test_telemetry_is_not_a_command(self):
        from repro.traffic.payload import cluster_telemetry
        pkt = Packet(src=ATT, dst=TGT, payload=cluster_telemetry(
            np.random.default_rng(1), 2))
        assert packet_to_events(pkt, 0.0, C2_EVENTS) == []

    def test_ground_truth_propagates(self):
        pkt = Packet(src=ATT, dst=TGT, flags=TcpFlags.SYN,
                     proto=Protocol.TCP, attack_id="x-1")
        assert packet_to_events(pkt, 0.0)[0].truth_attack_id == "x-1"


class TestAuditTrail:
    def test_bounded_fifo(self):
        trail = AuditTrail(capacity=3)
        for i in range(5):
            trail.log(AuditEvent(float(i), AuditEventType.CONNECTION,
                                 "s", str(i)))
        assert len(trail) == 3
        assert trail.total_logged == 5
        assert trail.overwritten == 2
        assert [e.detail for e in trail._events] == ["2", "3", "4"]

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            AuditTrail(capacity=0)


class TestInsiderDetectionViaAudit:
    def _agent(self, level):
        eng = Engine()
        host = Host(eng, "master", TGT)
        agent = HostAgent(eng, host, logging_level=level)
        got = []
        agent.add_sink(got.append)
        return eng, host, agent, got

    def _replay_trust_abuse(self, eng, host):
        insider = IPv4Address("10.0.0.2")
        trace, rec = TrustAbuse(insider, TGT).generate(
            0.0, np.random.default_rng(2))
        for t, pkt in trace:
            if pkt.dst == TGT:
                eng.schedule_at(t, host.receive, pkt)
        eng.run()
        return rec

    def test_c2_agent_catches_rogue_command(self):
        eng, host, agent, got = self._agent(LoggingLevel.C2)
        rec = self._replay_trust_abuse(eng, host)
        cats = {d.category for d in got}
        assert "rogue-command" in cats
        rogue = next(d for d in got if d.category == "rogue-command")
        assert rogue.truth_attack_id == rec.attack_id
        assert rogue.severity.name == "CRITICAL"

    def test_nominal_agent_blind_to_rogue_command(self):
        """The audit-depth/coverage trade: nominal logging (3-5 % CPU)
        never records COMMAND events, so the insider goes unseen."""
        eng, host, agent, got = self._agent(LoggingLevel.NOMINAL)
        self._replay_trust_abuse(eng, host)
        assert all(d.category != "rogue-command" for d in got)

    def test_rogue_dedup_per_subject_command(self):
        eng, host, agent, got = self._agent(LoggingLevel.C2)
        pkt = Packet(src=ATT, dst=TGT, payload=cluster_command(1, "exfil"))
        host.receive(pkt)
        host.receive(pkt.copy())
        assert sum(1 for d in got if d.category == "rogue-command") == 1

    def test_known_commands_clean(self):
        eng, host, agent, got = self._agent(LoggingLevel.C2)
        for cmd in KNOWN_CLUSTER_COMMANDS:
            host.receive(Packet(src=ATT, dst=TGT,
                                payload=cluster_command(1, cmd)))
        assert got == []

    def test_audit_trail_populated(self):
        eng, host, agent, got = self._agent(LoggingLevel.C2)
        host.receive(Packet(src=ATT, dst=TGT, dport=23, proto=Protocol.TCP,
                            flags=TcpFlags.SYN))
        assert [e.etype for e in agent.trail._events] == [
            AuditEventType.CONNECTION]
