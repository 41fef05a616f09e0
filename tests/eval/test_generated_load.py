"""Generated load traces: compact columns whose packets are built at
delivery.

``make_load_trace`` keeps per-packet indices into shared address and body
tables, and its packet column builds each ``Packet`` when the replay
cursor delivers it.  That must be invisible to the load metrics: a probe
on the generated trace equals a probe on an eager trace of the same
records, for every product, below and above saturation.  Each delivery
builds a fresh packet, the trace itself stays small, and bad arguments
still fail when the trace is made, not when it is replayed.
"""

import tracemalloc

import numpy as np
import pytest

from repro.errors import MeasurementError, NetworkError
from repro.eval import throughput
from repro.eval.throughput import make_load_trace, probe_rate
from repro.net.address import IPv4Address
from repro.net.trace import Trace
from repro.products import (AafidProduct, ManhuntProduct, NidProduct,
                            RealSecureProduct)
from repro.sim.engine import Engine

DST = IPv4Address("10.0.0.1")
PRODUCTS = [NidProduct, RealSecureProduct, ManhuntProduct, AafidProduct]


def fields(packets):
    return [(p.src.value, p.dst.value, p.sport, p.dport, p.proto,
             p.flag_bits, p.seq, p.ack, p.payload, p.payload_len,
             p.attack_id) for p in packets]


def probes(factory, rate, duration, mode):
    return [probe_rate(factory(), rate, duration_s=duration,
                       payload_mode=mode, seed=seed) for seed in (0, 7)]


def assert_probes_equal(factory, rate, duration, mode, monkeypatch):
    """The probes on generated traces equal those on eager traces (a list
    packet column) of the same records; returns them."""
    generated = probes(factory, rate, duration, mode)
    real = throughput.make_load_trace

    def eager(*args, **kwargs):
        trace = real(*args, **kwargs)
        eager_trace = Trace(trace.name)
        eager_trace.extend(list(trace))
        return eager_trace

    with monkeypatch.context() as patch:
        patch.setattr(throughput, "make_load_trace", eager)
        assert probes(factory, rate, duration, mode) == generated
    return generated


class TestProbeEquivalence:
    """Same ``LoadProbe`` on a generated and on an eager trace."""

    @pytest.mark.parametrize("factory", PRODUCTS)
    @pytest.mark.parametrize("rate", [500.0, 64_000.0, 256_000.0])
    def test_same_probe(self, factory, rate, monkeypatch):
        got = assert_probes_equal(factory, rate, 0.05, "http", monkeypatch)
        if factory is not AafidProduct and rate == 500.0:
            assert all(p.dropped_packets == 0 for p in got)

    def test_rates_cover_saturation(self):
        # the highest rate saturates every product with a pipeline
        for factory in (NidProduct, RealSecureProduct, ManhuntProduct):
            got = probes(factory, 256_000.0, 0.05, "http")
            assert all(p.dropped_packets > 0 for p in got)

    @pytest.mark.parametrize("mode", ["random", "logical"])
    def test_other_payload_modes(self, mode, monkeypatch):
        assert_probes_equal(NidProduct, 64_000.0, 0.05, mode, monkeypatch)


@pytest.mark.slow
class TestProbeEquivalenceDeep:
    """The long lane (CI's ``-m slow`` oracle step): battery-sized probes,
    64,000 packets each, as E1's top rate offers them."""

    @pytest.mark.parametrize("factory", PRODUCTS)
    @pytest.mark.parametrize("rate", [2_000.0, 64_000.0])
    def test_same_probe_battery_sized(self, factory, rate, monkeypatch):
        assert_probes_equal(factory, rate, 64_000 / rate, "http",
                            monkeypatch)


class TestPacketsBuiltAtDelivery:
    def replayed(self, trace):
        seen = []
        engine = Engine()
        trace.replay(engine, seen.append)
        engine.run()
        return seen

    @pytest.mark.parametrize("mode", ["http", "random", "logical"])
    def test_two_replays_equal_fields_distinct_objects(self, mode):
        trace = make_load_trace(np.random.default_rng(3), 4000.0, 0.05, DST,
                                payload_mode=mode)
        first, second = self.replayed(trace), self.replayed(trace)
        assert len(first) == len(trace) == 200
        assert fields(first) == fields(second) == fields(
            r.packet for r in trace)
        assert all(a is not b for a, b in zip(first, second))
        assert len({p.pid for p in first + second}) == 400

    def test_trace_holds_no_packets(self):
        make_load_trace(np.random.default_rng(0), 100.0, 1.0, DST)  # warm
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = make_load_trace(np.random.default_rng(0), 64_000.0,
                                    1.0, DST)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) == 64_000
        assert held < 2 * 2**20, f"{held / 2**20:.1f} MB"

    def test_times_are_plain_floats(self):
        trace = make_load_trace(np.random.default_rng(1), 1000.0, 0.01, DST)
        assert all(type(t) is float for t, _ in trace)
        assert all(type(p.sport) is int for _, p in trace)


class TestBadArgumentsRaiseAtBuild:
    @pytest.mark.parametrize("dst", ["10.0.0.1", None, 167772161])
    @pytest.mark.parametrize("rate", [0.5, 2000.0])  # empty and full
    def test_bad_dst(self, dst, rate):
        with pytest.raises(NetworkError):
            make_load_trace(np.random.default_rng(0), rate, 1.0, dst)

    @pytest.mark.parametrize("src_pool,error", [
        (0, MeasurementError), (-3, MeasurementError), (2.5, TypeError)])
    def test_bad_src_pool(self, src_pool, error):
        with pytest.raises(error):
            make_load_trace(np.random.default_rng(0), 100.0, 1.0, DST,
                            src_pool=src_pool)
