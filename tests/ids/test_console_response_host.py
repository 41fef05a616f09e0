"""Tests for the management console, response devices and host agents."""

import pytest

from repro.errors import ConfigurationError
from repro.net.address import IPv4Address
from repro.net.node import BorderRouter, Host
from repro.net.packet import Packet, Protocol
from repro.ids.alert import Alert, Severity
from repro.ids.console import ManagementConsole
from repro.ids.host import HostAgent, LoggingLevel
from repro.ids.policy import ResponseAction
from repro.ids.response import Firewall, Honeypot, RouterInterface, SnmpTrapReceiver
from repro.sim.engine import Engine
from repro.traffic.payload import telnet_login

ATT = IPv4Address("198.18.0.1")
TGT = IPv4Address("10.0.0.5")


def alert(severity=Severity.CRITICAL, category="syn-flood"):
    return Alert(time=0.0, analyzer="a", category=category, src=ATT, dst=TGT,
                 severity=severity, confidence=1.0)


class TestFirewall:
    def test_block_applies_after_latency(self):
        eng = Engine()
        fw = Firewall(eng, update_latency_s=0.2)
        fw.request_block(ATT)
        assert ATT.value not in fw._blocked
        eng.run()
        assert fw._blocked == {ATT.value}
        assert len(fw.block_requests) == 1

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            Firewall(Engine(), update_latency_s=-1)


class TestRouterInterfaceAndHoneypot:
    def test_block_via_border_router(self):
        eng = Engine()
        router = BorderRouter(eng)
        iface = RouterInterface(eng, router, update_latency_s=0.5)
        iface.request_block(ATT)
        eng.run()
        assert router._blocked == {ATT.value}

    def test_redirect_to_honeypot(self):
        eng = Engine()
        router = BorderRouter(eng)
        pot = Honeypot(eng, IPv4Address("10.0.0.250"))
        iface = RouterInterface(eng, router)
        iface.request_redirect(ATT, pot)
        eng.run()
        assert pot._attracted == {ATT.value}
        assert len(iface.redirect_requests) == 1


class TestSnmp:
    def test_trap_recording(self):
        eng = Engine()
        nms = SnmpTrapReceiver(eng)
        nms.trap("1.3.6.1.4.1.2002.1", "portscan from 198.18.0.1")
        assert len(nms.traps) == 1
        t, oid, detail = nms.traps[0]
        assert oid.startswith("1.3.6")
        assert "portscan" in detail


class TestManagementConsole:
    def _console(self, eng, **kw):
        kw.setdefault("firewall", Firewall(eng, update_latency_s=0.1))
        kw.setdefault("snmp", SnmpTrapReceiver(eng))
        return ManagementConsole(eng, "mgr", **kw)

    def test_respond_firewall_block(self):
        eng = Engine()
        con = self._console(eng)
        con.respond(ResponseAction.FIREWALL_BLOCK, alert())
        eng.run()
        assert con.firewall._blocked == {ATT.value}
        assert len(con.responses) == 1
        assert con.responses[0].action is ResponseAction.FIREWALL_BLOCK

    def test_respond_snmp(self):
        eng = Engine()
        con = self._console(eng)
        con.respond(ResponseAction.SNMP_TRAP, alert())
        assert len(con.snmp.traps) == 1

    def test_missing_capability_noop(self):
        eng = Engine()
        con = ManagementConsole(eng, "mgr")  # no devices at all
        con.respond(ResponseAction.FIREWALL_BLOCK, alert())
        assert con.responses == []
        assert con.capabilities == {"firewall": False, "router": False,
                                    "snmp": False, "honeypot": False}

    def test_honeypot_redirect_needs_router_and_pot(self):
        eng = Engine()
        router = BorderRouter(eng)
        pot = Honeypot(eng, IPv4Address("10.0.0.250"))
        con = ManagementConsole(eng, "mgr",
                                router=RouterInterface(eng, router),
                                honeypot=pot)
        con.respond(ResponseAction.HONEYPOT_REDIRECT, alert())
        eng.run()
        assert pot._attracted == {ATT.value}


class TestHostAgent:
    def _host(self, eng):
        return Host(eng, "h0", TGT)

    def test_cpu_overhead_nominal_vs_c2(self):
        eng = Engine()
        nominal = HostAgent(eng, Host(eng, "h0", TGT),
                            logging_level=LoggingLevel.NOMINAL)
        c2 = HostAgent(eng, Host(eng, "h1", TGT + 1),
                       logging_level=LoggingLevel.C2)
        assert 0.03 <= nominal.host.cpu.consumer_average(nominal.name) <= 0.05
        assert c2.host.cpu.consumer_average(c2.name) == pytest.approx(0.20)

    def test_detects_failed_login_storm(self):
        eng = Engine()
        host = self._host(eng)
        agent = HostAgent(eng, host, failed_login_threshold=5)
        got = []
        agent.add_sink(got.append)
        bad = telnet_login("root", "guess", success=False)
        for _ in range(5):
            host.receive(Packet(src=ATT, dst=TGT, sport=23, dport=2000,
                                payload=bad, attack_id="bf-1"))
        assert len(got) == 1
        assert got[0].category == "failed-login-storm"
        assert got[0].truth_attack_id == "bf-1"
        assert agent.report_bytes > 0

    def test_detects_masquerade_after_failures(self):
        eng = Engine()
        host = self._host(eng)
        agent = HostAgent(eng, host, failed_login_threshold=4)
        got = []
        agent.add_sink(got.append)
        bad = telnet_login("root", "guess", success=False)
        ok = telnet_login("root", "hunter2", success=True)
        for _ in range(3):
            host.receive(Packet(src=ATT, dst=TGT, sport=23, dport=2000, payload=bad))
        host.receive(Packet(src=ATT, dst=TGT, sport=2000, dport=23, payload=ok))
        cats = {d.category for d in got}
        assert "masquerade-login" in cats

    def test_benign_traffic_no_detections(self):
        eng = Engine()
        host = self._host(eng)
        agent = HostAgent(eng, host)
        got = []
        agent.add_sink(got.append)
        host.receive(Packet(src=ATT, dst=TGT, dport=80, payload=b"GET / HTTP/1.0"))
        assert got == []
        assert agent.log_events == 1

    def test_validation(self):
        eng = Engine()
        with pytest.raises(ConfigurationError):
            HostAgent(eng, self._host(eng), failed_login_threshold=0)
