"""Tests for RNG registry and host CPU resource model."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.resources import HostCpu
from repro.sim.rng import RngRegistry


class TestRngRegistry:
    def test_same_seed_same_stream(self):
        a = RngRegistry(123).stream("x")
        b = RngRegistry(123).stream("x")
        assert list(a.random(8)) == list(b.random(8))

    def test_different_names_differ(self):
        reg = RngRegistry(123)
        a = reg.stream("x").random(8)
        b = reg.stream("y").random(8)
        assert list(a) != list(b)

    def test_independent_of_request_order(self):
        r1 = RngRegistry(5)
        r2 = RngRegistry(5)
        r1.stream("a")  # request 'a' first in r1 only
        x1 = r1.stream("b").random(4)
        x2 = r2.stream("b").random(4)
        assert list(x1) == list(x2)

    def test_stream_cached(self):
        reg = RngRegistry(0)
        assert reg.stream("s") is reg.stream("s")


class TestHostCpu:
    def test_initial_idle(self):
        cpu = HostCpu(Engine())
        assert cpu.consumer_average("ids") == 0.0

    def test_saturation(self):
        cpu = HostCpu(Engine())
        cpu.add_load("a", 0.7)
        cpu.add_load("a", 0.6)
        # a consumer's loads add up, uncapped past the whole CPU
        assert cpu.consumer_average("a") == pytest.approx(1.3)

    def test_negative_load_rejected(self):
        with pytest.raises(ConfigurationError):
            HostCpu(Engine()).add_load("bad", -0.1)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            HostCpu(Engine(), capacity_ops=0)

    def test_average_utilization_time_weighted(self):
        eng = Engine()
        cpu = HostCpu(eng)
        eng.schedule(0.0, cpu.add_load, "ids", 0.2)
        eng.run(until=10.0)
        # load 0.2 held over entire window
        assert cpu.consumer_average("ids", until=10.0) == pytest.approx(0.2, abs=1e-9)

    def test_consumer_average_attribution(self):
        eng = Engine()
        cpu = HostCpu(eng)
        eng.schedule(0.0, cpu.add_load, "ids", 0.2)
        eng.schedule(0.0, cpu.add_load, "other", 0.5)
        eng.schedule(5.0, cpu.add_load, "ids", 0.2)
        eng.run(until=10.0)
        # 0.2 for 5 s, then 0.4 for 5 s -> 0.3; each consumer on its own
        assert cpu.consumer_average("ids", until=10.0) == pytest.approx(0.3, abs=1e-9)
        assert cpu.consumer_average("other", until=10.0) == pytest.approx(0.5)
        assert cpu.consumer_average("none") == 0.0
