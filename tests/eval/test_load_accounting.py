"""Packet accounting of the load probes behind Table 3's load metrics.

Every packet ``probe_rate`` offers is either processed or dropped by the
deployment (offered = processed + dropped), below and above saturation and
for every payload mode, and no packet is still in flight when the probe
returns: the only events left are the recovery timers of sensors that
crashed, which lie beyond the probe window and move no packet counter.

AAFID is left out on purpose.  It has no network pipeline, so its probes
read processed = 0 and dropped = 0 for every offered packet; closing that
gap means choosing how a host-agent-only product is scored on the load
metrics, which moves the E1 goldens and belongs with the packet ledger
that defines one identity per component.
"""

import pytest

from repro.eval import throughput
from repro.ids.sensor import FailureMode
from repro.products import ManhuntProduct, NidProduct, RealSecureProduct

DURATION_S = 0.05

#: (product, a rate below saturation, a rate above it)
PRODUCTS = [
    (NidProduct, 500.0, 64_000.0),
    (RealSecureProduct, 500.0, 64_000.0),
    (ManhuntProduct, 500.0, 256_000.0),
]


@pytest.fixture
def testbeds(monkeypatch):
    """The testbeds ``probe_rate`` builds, in order."""
    made = []

    class Recorded(throughput.EvalTestbed):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(throughput, "EvalTestbed", Recorded)
    return made


@pytest.mark.parametrize("mode", ["http", "random", "logical"])
@pytest.mark.parametrize("saturated", [False, True],
                         ids=["below", "above"])
@pytest.mark.parametrize("factory, low, high", PRODUCTS,
                         ids=[p[0].__name__ for p in PRODUCTS])
def test_offered_equals_processed_plus_dropped(testbeds, factory, low, high,
                                               saturated, mode):
    probe = throughput.probe_rate(factory(), high if saturated else low,
                                  duration_s=DURATION_S, payload_mode=mode)
    assert probe.offered_packets == (
        probe.processed_packets + probe.dropped_packets)
    assert (probe.dropped_packets > 0) == saturated

    (testbed,) = testbeds
    engine, dep = testbed.engine, testbed.deployment
    recovering = [s for s in dep.sensors
                  if not s.up and s.failure_mode is not FailureMode.HANG]
    assert engine.pending == len(recovering)
    # draining those timers delivers no packet
    engine.run()
    assert engine.pending == 0
    assert dep.packets_processed == probe.processed_packets
    assert dep.packets_dropped == probe.dropped_packets
    assert all(s.up for s in recovering)
