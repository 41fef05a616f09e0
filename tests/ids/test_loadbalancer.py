"""Tests for the load-balancing strategies."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import ConfigurationError
from repro.net.address import IPv4Address, Subnet
from repro.net.packet import Packet, Protocol
from repro.net.tcp import build_session
from repro.ids.loadbalancer import (
    DynamicBalancer,
    HashBalancer,
    NoBalancer,
    StaticPlacementBalancer,
    _flow_ints,
)
from repro.net.flow import FlowKey
from repro.ids.sensor import Sensor
from repro.sim.engine import Engine


class NullDetector:
    sensitivity = 0.5

    def process(self, pkt, now):
        return []

    def reset(self):
        pass


def make_sensors(eng, n, ops_rate=1e9):
    return [Sensor(eng, f"s{i}", NullDetector(), ops_rate=ops_rate,
                   per_byte_ops=0.0, lethal_drop_rate=None)
            for i in range(n)]


def pkt(src="198.18.0.1", dst="10.0.0.5", sport=1000, dport=80, **kw):
    return Packet(src=IPv4Address(src), dst=IPv4Address(dst),
                  sport=sport, dport=dport, **kw)


class TestNoBalancer:
    def test_single_sensor_only(self):
        eng = Engine()
        with pytest.raises(ConfigurationError):
            NoBalancer(eng, "lb", make_sensors(eng, 2))

    def test_forwards_everything(self):
        eng = Engine()
        sensors = make_sensors(eng, 1)
        lb = NoBalancer(eng, "lb", sensors)
        for _ in range(10):
            lb.ingest(pkt())
        eng.run()
        assert sensors[0].received == 10
        assert lb.balance_evenness() == 1.0


class TestStaticPlacement:
    def test_partitions_by_subnet(self):
        eng = Engine()
        sensors = make_sensors(eng, 2)
        lb = StaticPlacementBalancer(
            eng, "lb", sensors, subnets=["10.0.0.0/25", "10.0.0.128/25"])
        lb.ingest(pkt(dst="10.0.0.5"))
        lb.ingest(pkt(dst="10.0.0.200"))
        lb.ingest(pkt(dst="10.0.0.7"))
        eng.run()
        assert sensors[0].received == 2
        assert sensors[1].received == 1

    def test_fallthrough_to_last(self):
        eng = Engine()
        sensors = make_sensors(eng, 2)
        lb = StaticPlacementBalancer(
            eng, "lb", sensors, subnets=["10.0.0.0/25", "10.0.0.128/25"])
        lb.ingest(pkt(dst="192.0.2.1"))
        eng.run()
        assert sensors[1].received == 1

    def test_skew_starves_and_overloads(self):
        # all traffic to one subnet: the paper's overload/starvation case
        eng = Engine()
        sensors = make_sensors(eng, 2)
        lb = StaticPlacementBalancer(
            eng, "lb", sensors, subnets=["10.0.0.0/25", "10.0.0.128/25"])
        for i in range(100):
            lb.ingest(pkt(dst="10.0.0.5", sport=1000 + i))
        eng.run()
        assert lb.balance_evenness() == pytest.approx(0.5)  # worst case for 2

    def test_subnet_count_must_match(self):
        eng = Engine()
        with pytest.raises(ConfigurationError):
            StaticPlacementBalancer(eng, "lb", make_sensors(eng, 2),
                                    subnets=["10.0.0.0/24"])


class TestHashBalancer:
    def test_session_consistency_both_directions(self):
        eng = Engine()
        sensors = make_sensors(eng, 4)
        lb = HashBalancer(eng, "lb", sensors)
        a, b = IPv4Address("198.18.0.1"), IPv4Address("10.0.0.5")
        session = build_session(a, b, 3456, 80, request=b"GET /",
                                response=b"hi")
        for p in session:
            lb.ingest(p)
        eng.run()
        hit = [s for s in sensors if s.received > 0]
        assert len(hit) == 1
        assert hit[0].received == len(session)

    def test_many_flows_spread_evenly(self):
        eng = Engine()
        sensors = make_sensors(eng, 4)
        lb = HashBalancer(eng, "lb", sensors)
        rng = np.random.default_rng(1)
        for _ in range(2000):
            lb.ingest(pkt(src=f"198.18.{rng.integers(0,256)}.{rng.integers(1,255)}",
                          sport=int(rng.integers(1024, 65000))))
        eng.run()
        assert lb.balance_evenness() > 0.95


class TestFlowInts:
    """The balancers' int flow tuple is the tuple ``HashBalancer`` hashed
    when it was built from a :class:`FlowKey`, so assignment is unchanged,
    and it identifies flows exactly as ``FlowKey`` does."""

    @staticmethod
    def from_flow_key(p):
        key = FlowKey.of(p)
        return (key.addr_lo.value, key.port_lo, key.addr_hi.value,
                key.port_hi, key.proto.proto_id)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(("10.0.0.5", "10.0.0.6", "198.18.0.1")),
        st.sampled_from(("10.0.0.5", "10.0.0.6", "198.18.0.1")),
        st.sampled_from((0, 80, 1000, 65535)),
        st.sampled_from((0, 80, 1000, 65535)),
        st.sampled_from(tuple(Protocol))), min_size=1, max_size=12))
    def test_same_tuple_as_flow_key(self, fields):
        packets = [pkt(src=a, dst=b, sport=sp, dport=dp, proto=proto)
                   for a, b, sp, dp, proto in fields]
        for p in packets:
            assert _flow_ints(p) == self.from_flow_key(p)
        for p in packets:
            for q in packets:
                assert ((_flow_ints(p) == _flow_ints(q))
                        == (FlowKey.of(p) == FlowKey.of(q)))


#: One RealSecure load probe; prints the hash balancer's per-sensor counts.
_PROBE_SCRIPT = """
import json
from repro.eval.throughput import probe_rate
from repro.products import RealSecureProduct

class Recorded(RealSecureProduct):
    def deploy(self, engine, testbed):
        self.deployment = super().deploy(engine, testbed)
        return self.deployment

product = Recorded()
probe_rate(product, 4000.0, duration_s=0.3)
print(json.dumps(product.deployment.pipeline.balancer.per_sensor_count))
"""


class TestHashBalancerDeterminism:
    def test_assignment_independent_of_hash_seed(self):
        # str hashes are salted per process; the flow hash must not be
        src = os.path.dirname(os.path.dirname(repro.__file__))
        counts = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")]))}
            out = subprocess.run([sys.executable, "-c", _PROBE_SCRIPT],
                                 env=env, capture_output=True, text=True,
                                 check=True).stdout
            counts.append(json.loads(out))
        assert counts[0] == counts[1]
        assert len(counts[0]) == 2 and all(counts[0].values())


class TestDynamicBalancer:
    def test_flow_stickiness(self):
        eng = Engine()
        sensors = make_sensors(eng, 3)
        lb = DynamicBalancer(eng, "lb", sensors)
        a, b = IPv4Address("198.18.0.1"), IPv4Address("10.0.0.5")
        for p in build_session(a, b, 4000, 80, request=b"x" * 100):
            lb.ingest(p)
        eng.run()
        assert sum(1 for s in sensors if s.received > 0) == 1

    def test_least_backlog_selection(self):
        eng = Engine()
        # sensor 0 is slow, sensor 1 fast
        s0 = Sensor(eng, "slow", NullDetector(), ops_rate=1e3, header_ops=100.0,
                    per_byte_ops=0.0, max_queue_delay_s=10.0, lethal_drop_rate=None)
        s1 = Sensor(eng, "fast", NullDetector(), ops_rate=1e9, header_ops=100.0,
                    per_byte_ops=0.0, lethal_drop_rate=None)
        lb = DynamicBalancer(eng, "lb", [s0, s1])
        for i in range(50):
            lb.ingest(pkt(sport=1000 + i))  # distinct flows
        eng.run()
        assert s1.received > s0.received  # backlog steers away from slow

    def test_avoids_downed_sensor(self):
        eng = Engine()
        sensors = make_sensors(eng, 2)
        sensors[0].up = False
        lb = DynamicBalancer(eng, "lb", sensors)
        for i in range(20):
            lb.ingest(pkt(sport=1000 + i))
        eng.run()
        assert sensors[0].received == 0
        assert sensors[1].received == 20

    def test_evenness_under_uniform_flows(self):
        eng = Engine()
        sensors = make_sensors(eng, 4)
        lb = DynamicBalancer(eng, "lb", sensors)
        for i in range(1000):
            lb.ingest(pkt(sport=1024 + (i % 60000)))
        eng.run()
        assert lb.balance_evenness() > 0.9

    @staticmethod
    def _staged(states, now=1.0):
        """A balancer at ``now`` whose sensors have the given ``(up,
        backlog_s, assigned)`` states."""
        eng = Engine(start_time=now)
        sensors = make_sensors(eng, len(states))
        lb = DynamicBalancer(eng, "lb", sensors)
        for s, (up, backlog, assigned) in zip(sensors, states):
            s.up = up
            s._busy_until = now + backlog
            lb.per_sensor_count[s.name] = assigned
        return lb, sensors

    def test_selection_order(self):
        # down last, then the 10 ms backlog bucket, then the assignment
        # count; a full tie keeps the first sensor in list order
        cases = [
            ([(True, 0.0, 0)] * 3, 0),
            ([(True, 0.0, 1), (True, 0.0, 0), (True, 0.0, 0)], 1),
            ([(True, 0.009, 0), (True, 0.001, 0)], 0),   # same bucket
            ([(True, 0.011, 0), (True, 0.001, 5)], 1),   # lower bucket wins
            ([(False, 0.0, 0), (True, 5.0, 99)], 1),     # down sorts last
            ([(False, 0.0, 3), (False, 0.0, 1)], 1),     # all down: by count
            ([(True, -3.0, 2), (True, 0.0, 2)], 0),      # idle clamps to 0
        ]
        for states, expected in cases:
            lb, sensors = self._staged(states)
            assert lb.select(pkt(sport=4000)) is sensors[expected], states

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.booleans(),
                              st.sampled_from([-1.0, 0.0, 0.004, 0.01,
                                               0.015, 0.03, 2.0]),
                              st.integers(0, 3)),
                    min_size=1, max_size=6))
    def test_same_choice_as_min_over_rank(self, states):
        lb, sensors = self._staged(states)
        now = lb.engine.now
        expected = min(sensors, key=lambda s: (
            not s.up, int(max(s._busy_until - now, 0.0) / 0.01),
            lb.per_sensor_count[s.name]))
        assert lb.select(pkt(sport=4000)) is expected


class TestBalancerCapacity:
    def test_capacity_drops_excess(self):
        eng = Engine()
        sensors = make_sensors(eng, 1)
        lb = NoBalancer(eng, "lb", sensors, capacity_pps=10)
        for _ in range(25):
            lb.ingest(pkt())
        eng.run()
        assert lb.dropped == 15
        assert sensors[0].received == 10

    def test_capacity_window_resets(self):
        eng = Engine()
        sensors = make_sensors(eng, 1)
        lb = NoBalancer(eng, "lb", sensors, capacity_pps=10)
        for i in range(15):
            eng.schedule_at(0.01 * i, lb.ingest, pkt())
        for i in range(15):
            eng.schedule_at(1.5 + 0.01 * i, lb.ingest, pkt())
        eng.run()
        assert lb.dropped == 10  # 5 in each window

    def test_inline_latency_delays_delivery(self):
        eng = Engine()
        sensors = make_sensors(eng, 1)
        lb = NoBalancer(eng, "lb", sensors, induced_latency_s=0.05)
        lb.ingest(pkt())
        assert sensors[0].received == 0  # not yet
        eng.run()
        assert sensors[0].received == 1
        assert eng.now >= 0.05

    def test_needs_sensors(self):
        with pytest.raises(ConfigurationError):
            HashBalancer(Engine(), "lb", [])


class TestCapacityWindowAnchoring:
    """Regression for the window-anchoring bug: the reset used to snap
    ``_window_start`` to ``float(int(now))``, so a burst straddling that
    snapped boundary passed up to twice ``capacity_pps``."""

    def test_boundary_straddling_burst_capped(self):
        eng = Engine()
        sensors = make_sensors(eng, 1)
        lb = NoBalancer(eng, "lb", sensors, capacity_pps=10)
        # window anchors at the first packet (t=0.90); all 20 packets fall
        # inside [0.90, 1.90), yet the old logic reset the window at
        # t=1.10 (snapped anchor 1.0) and forwarded all 20
        for i in range(10):
            eng.schedule_at(0.90 + 1e-4 * i, lb.ingest, pkt())
        for i in range(10):
            eng.schedule_at(1.10 + 1e-4 * i, lb.ingest, pkt())
        eng.run()
        assert sensors[0].received == 10
        assert lb.dropped == 10

    def test_anchor_advances_in_whole_window_steps(self):
        eng = Engine()
        sensors = make_sensors(eng, 1)
        lb = NoBalancer(eng, "lb", sensors, capacity_pps=10)
        # bursts at 0.5, 1.7, 2.9: each lands in its own anchored window
        # ([0.5,1.5), [1.5,2.5), [2.5,3.5)) so every burst is capped alone
        for burst_start in (0.5, 1.7, 2.9):
            for i in range(12):
                eng.schedule_at(burst_start + 1e-4 * i, lb.ingest, pkt())
        eng.run()
        assert sensors[0].received == 30
        assert lb.dropped == 6  # 2 over capacity per burst

    def test_long_gap_still_resets(self):
        eng = Engine()
        sensors = make_sensors(eng, 1)
        lb = NoBalancer(eng, "lb", sensors, capacity_pps=10)
        for i in range(10):
            eng.schedule_at(0.25 + 1e-4 * i, lb.ingest, pkt())
        # 5.75 s later: the anchor advances by whole windows to 5.25 and
        # the count resets, so the second burst forwards in full
        for i in range(10):
            eng.schedule_at(6.00 + 1e-4 * i, lb.ingest, pkt())
        eng.run()
        assert sensors[0].received == 20
        assert lb.dropped == 0


class TestEvennessDefinition:
    def test_starved_sensor_drags_index_down(self):
        eng = Engine()
        sensors = make_sensors(eng, 4)
        lb = HashBalancer(eng, "lb", sensors)
        # one flow only: a single sensor gets everything, three starve
        for _ in range(40):
            lb.ingest(pkt(sport=1234))
        eng.run()
        assert lb.balance_evenness() == pytest.approx(0.25)

    def test_drop_only_workload_is_worst_case_not_vacuous(self):
        eng = Engine()
        sensors = make_sensors(eng, 4)
        lb = HashBalancer(eng, "lb", sensors)
        lb.force_fail()
        for _ in range(10):
            lb.ingest(pkt())
        eng.run()
        assert lb.received == 10 and lb.forwarded == 0
        assert lb.balance_evenness() == pytest.approx(0.25)

    def test_no_traffic_is_neutral(self):
        eng = Engine()
        lb = HashBalancer(eng, "lb", make_sensors(eng, 4))
        assert lb.balance_evenness() == 1.0


class TestFailover:
    def test_reselects_around_down_sensor(self):
        eng = Engine()
        sensors = make_sensors(eng, 3)
        lb = HashBalancer(eng, "lb", sensors)
        lb.failover = True
        target = lb.select(pkt(sport=4242))
        target.force_fail()
        lb.ingest(pkt(sport=4242))
        eng.run()
        assert target.received == 0
        assert lb.failovers == 1
        assert sum(s.received for s in sensors) == 1

    def test_sheds_when_every_sensor_down(self):
        eng = Engine()
        sensors = make_sensors(eng, 2)
        lb = HashBalancer(eng, "lb", sensors)
        lb.failover = True
        for s in sensors:
            s.force_fail()
        lb.ingest(pkt())
        eng.run()
        assert lb.shed_no_sensor == 1
        assert lb.forwarded == 0

    def test_dormant_without_failover_flag(self):
        # clean runs never consult sensor.up: the selection is unchanged
        eng = Engine()
        sensors = make_sensors(eng, 3)
        lb = HashBalancer(eng, "lb", sensors)
        target = lb.select(pkt(sport=4242))
        target.force_fail()
        lb.ingest(pkt(sport=4242))
        eng.run()
        assert lb.failovers == 0
        assert lb.per_sensor_count[target.name] == 1

    def test_recovered_sensor_rejoins_dynamic_assignment(self):
        eng = Engine()
        sensors = make_sensors(eng, 2)
        lb = DynamicBalancer(eng, "lb", sensors)
        lb.failover = True
        sensors[0].force_fail()
        lb.ingest(pkt(sport=5000))  # sticks the flow on sensors[1]
        sensors[0].force_restore()
        lb.notify_recovered(sensors[0])
        assert lb.recoveries == 1
        lb.ingest(pkt(sport=5000))  # sticky table cleared: re-balances
        eng.run()
        assert sensors[0].received + sensors[1].received == 2
