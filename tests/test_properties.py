"""Cross-cutting property-based invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catalog import default_catalog
from repro.ids.anomaly import AnomalyEngine
from repro.net.address import IPv4Address
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.trace import Trace
from repro.sim.engine import Engine

A, B = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")


class TestLinkProperties:
    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=0.5, allow_nan=False),
        st.integers(min_value=0, max_value=1400)), min_size=1, max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_fifo_delivery_order(self, arrivals):
        """Delivered packets leave the link in the order they entered."""
        eng = Engine()
        order_in, order_out = [], []
        link = Link(eng, bandwidth_bps=2e5, queue_bytes=8000,
                    sink=lambda p: order_out.append(p.pid))
        arrivals.sort(key=lambda a: a[0])

        def send(n):
            pkt = Packet(src=A, dst=B, payload_len=n)
            if link.send(pkt):
                order_in.append(pkt.pid)

        for t, n in arrivals:
            eng.schedule_at(t, send, n)
        eng.run()
        assert order_out == order_in

    @given(st.integers(min_value=1, max_value=60),
           st.integers(min_value=100, max_value=1400))
    @settings(max_examples=30, deadline=None)
    def test_delivery_times_nondecreasing(self, n, size):
        eng = Engine()
        times = []
        link = Link(eng, bandwidth_bps=1e6,
                    sink=lambda p: times.append(eng.now))
        for _ in range(n):
            link.send(Packet(src=A, dst=B, payload_len=size))
        eng.run()
        assert times == sorted(times)


class TestTraceProperties:
    @given(st.lists(st.lists(st.floats(min_value=0, max_value=100,
                                       allow_nan=False),
                             max_size=20),
                    min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_merge_preserves_count_and_order(self, groups):
        traces = []
        for times in groups:
            trace = Trace()
            for t in sorted(times):
                trace.append(t, Packet(src=A, dst=B))
            traces.append(trace)
        merged = Trace.merge(traces)
        assert len(merged) == sum(len(t) for t in traces)
        stamps = [r.time for r in merged]
        assert stamps == sorted(stamps)


class TestAnomalyProperties:
    @given(st.floats(min_value=0, max_value=1, allow_nan=False),
           st.floats(min_value=0, max_value=1, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_threshold_monotone_in_sensitivity(self, s1, s2):
        e1, e2 = AnomalyEngine(sensitivity=s1), AnomalyEngine(sensitivity=s2)
        if s1 <= s2:
            assert e1.threshold >= e2.threshold
        else:
            assert e1.threshold <= e2.threshold


class TestCatalogProperties:
    def test_all_table_metrics_have_anchors(self):
        for metric in default_catalog().table_metrics():
            assert metric.anchors is not None, metric.name

    def test_names_are_unique_and_titlecased(self):
        names = default_catalog().names()
        assert len(names) == len(set(names))
        for name in names:
            assert name[0].isupper() or name[0].isdigit()
