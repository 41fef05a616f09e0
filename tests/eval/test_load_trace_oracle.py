"""Differential test of ``make_load_trace`` against the per-packet builder
it replaced (``tests/oracles/load_trace_reference.py``).

The production builder draws the per-packet integers of ``http`` and
``logical`` traces in one broadcast ``Generator.integers`` call, shares
the HTTP bodies between packets and keeps compact columns whose packets
are built when read.  All of it must be invisible: for every input,
the two builders yield the same records (time, addresses, ports, protocol,
payload bytes and length, pid order) and leave the caller's generator in
the same state, because the ablation and Figure-1 benchmarks draw from
their own generator after building a load trace.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.eval.throughput import make_load_trace
from repro.net.address import IPv4Address
from tests.oracles import load_trace_reference

DST = IPv4Address("10.0.0.1")

#: 0, below and above the length of every request the builder formats
#: (the shortest is 98 bytes, the longest 136)
PAYLOAD_SIZES = st.one_of(st.sampled_from([0, 1, 97, 98, 136, 137, 400]),
                          st.integers(0, 1500))


def records(trace):
    """Every field of every record, with pids relative to the first one
    of the same materialization (a generated trace builds fresh packets,
    with fresh pids, each time it is read)."""
    recs = list(trace)
    first = recs[0].packet.pid if recs else 0
    return [(r.time, r.packet.pid - first, r.packet.src.value,
             r.packet.dst.value, r.packet.sport, r.packet.dport,
             r.packet.proto, r.packet.flag_bits, r.packet.payload,
             r.packet.payload_len, r.packet.attack_id) for r in recs]


def assert_same_as_reference(seed, rate, duration, mode, size, pool):
    ours_rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    ours = make_load_trace(ours_rng, rate, duration, DST, payload_mode=mode,
                           payload_size=size, src_pool=pool)
    ref = load_trace_reference.make_load_trace(
        ref_rng, rate, duration, DST, payload_mode=mode,
        payload_size=size, src_pool=pool)
    assert ours.name == ref.name
    assert len(ours) == len(ref)
    assert records(ours) == records(ref)
    assert ours_rng.bit_generator.state == ref_rng.bit_generator.state
    # the next draw from the caller's generator is the same too
    assert ours_rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


class TestSameAsReference:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1),
           rate=st.floats(0.5, 4000.0),
           duration=st.floats(0.001, 1.0),
           mode=st.sampled_from(["http", "random", "logical"]),
           size=PAYLOAD_SIZES,
           pool=st.integers(1, 300))
    @example(seed=0, rate=0.5, duration=1.0, mode="http", size=400, pool=64)
    def test_same_records_and_generator_state(self, seed, rate, duration,
                                              mode, size, pool):
        assert_same_as_reference(seed, rate, duration, mode, size, pool)

    @pytest.mark.parametrize("mode", ["http", "random", "logical"])
    def test_battery_shaped_trace(self, mode):
        # an E1 load probe: 2000 pps for 1 s, 400-byte payloads, 64 sources
        assert_same_as_reference(2000, 2000.0, 1.0, mode, 400, 64)


@pytest.mark.slow
class TestSameAsReferenceDeep:
    """The long lane (CI's ``-m slow`` oracle step): battery-sized traces.
    Seeds 1, 3 and 500 at 64,000 or 64,001 packets each redraw at least
    once in numpy's rejection step for bounded integers (Lemire's method),
    the step where a bulk draw could fall out of step with scalar ones."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 500, 1009, 64000])
    @pytest.mark.parametrize("n", [500, 64_000, 64_001])
    @pytest.mark.parametrize("mode", ["http", "logical"])
    def test_bulk_draws_at_scale(self, seed, n, mode):
        assert_same_as_reference(seed, float(n), 1.0, mode, 400, 64)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1),
           rate=st.floats(0.5, 20000.0),
           duration=st.floats(0.001, 2.0),
           mode=st.sampled_from(["http", "random", "logical"]),
           size=PAYLOAD_SIZES,
           pool=st.integers(1, 70000))
    def test_same_records_and_generator_state_deep(self, seed, rate,
                                                   duration, mode, size,
                                                   pool):
        assert_same_as_reference(seed, rate, duration, mode, size, pool)
