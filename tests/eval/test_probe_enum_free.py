"""Regression: a load probe does no enum work per packet.

``int & IntFlag`` dispatches to the python-level ``IntFlag.__rand__`` and
``enum.Enum.__hash__`` is a python-level call, so either one on the
per-packet path costs a call per packet.  One probe per balancer strategy
and one AAFID probe (host agents: the audit path) run with
``TcpFlags.__and__``/``__rand__`` patched to raise and
``Protocol.__hash__`` counted.
"""

import pytest

from repro.eval.throughput import probe_rate
from repro.ids.loadbalancer import StaticPlacementBalancer
from repro.net.packet import Protocol, TcpFlags
from repro.products import (AafidProduct, ManhuntProduct, NidProduct,
                            RealSecureProduct, realsecure)


@pytest.fixture
def protocol_hashes(monkeypatch):
    """Forbid TcpFlags arithmetic; return the list of Protocol hashes."""
    def forbidden(self, other):
        raise AssertionError("TcpFlags arithmetic on the per-packet path")

    monkeypatch.setattr(TcpFlags, "__and__", forbidden)
    monkeypatch.setattr(TcpFlags, "__rand__", forbidden)
    hashed = []
    real_hash = Protocol.__hash__

    def counted(self):
        hashed.append(self)
        return real_hash(self)

    monkeypatch.setattr(Protocol, "__hash__", counted)
    return hashed


@pytest.fixture
def static_placement(monkeypatch):
    """RealSecure with its flow-hash balancer swapped for static placement
    (no shipped product uses it); returns the balancers it built."""
    built = []

    def factory(engine, name, sensors, **kwargs):
        subnets = ["10.0.0.0/25", "10.0.0.128/25"][:len(sensors)]
        built.append(StaticPlacementBalancer(engine, name, sensors, subnets,
                                             **kwargs))
        return built[-1]

    monkeypatch.setattr(realsecure, "HashBalancer", factory)
    return built


def probed(factory):
    """Run one probe; return the deployment it measured."""
    deployments = []

    class Recorded(factory):
        def deploy(self, engine, testbed):
            deployments.append(super().deploy(engine, testbed))
            return deployments[-1]

    probe = probe_rate(Recorded(), 3000.0, duration_s=0.25)
    assert probe.offered_packets == 750
    return deployments[0]


def work_done(dep):
    """Packets the pipeline handled plus packets host agents audited."""
    return (dep.packets_processed + dep.packets_dropped
            + sum(agent.log_events for agent in dep.host_agents))


@pytest.mark.parametrize("factory", [NidProduct, RealSecureProduct,
                                     ManhuntProduct, AafidProduct],
                         ids=lambda f: f.__name__)
def test_probe_does_no_enum_work(factory, protocol_hashes):
    dep = probed(factory)
    assert dep.ingested == 750 and work_done(dep) > 0
    assert protocol_hashes == []


def test_static_placement_probe_does_no_enum_work(static_placement,
                                                  protocol_hashes):
    dep = probed(RealSecureProduct)
    assert [b.strategy for b in static_placement] == ["static-placement"]
    assert dep.packets_processed > 0
    assert protocol_hashes == []


def test_the_watch_sees_enum_work(protocol_hashes):
    with pytest.raises(AssertionError):
        3 & TcpFlags.SYN
    {Protocol.TCP: 0}.get(Protocol.UDP)
    assert protocol_hashes == [Protocol.TCP, Protocol.UDP]
