"""The per-packet load-trace builder, as a differential oracle.

This is ``repro.eval.throughput.make_load_trace`` as it stood before its
integer draws became one broadcast ``Generator.integers`` call per trace
and its HTTP bodies became 30 shared ``bytes`` objects: four scalar draws
per ``http`` packet, a fresh body per packet and one ``Trace.append`` per
record.  ``tests/eval/test_load_trace_oracle.py`` runs it and the
production builder on the same inputs and requires identical records, pid
order and generator state.  Only the module docstring and the imports
differ from the original.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MeasurementError
from repro.net.address import IPv4Address
from repro.net.packet import Packet, Protocol
from repro.net.trace import Trace
from repro.traffic import payload as pl

__all__ = ["make_load_trace"]


def make_load_trace(
    rng: np.random.Generator,
    rate_pps: float,
    duration_s: float,
    dst: IPv4Address,
    payload_mode: str = "http",
    payload_size: int = 400,
    src_pool: int = 64,
) -> Trace:
    """Benign load traffic at a fixed rate with selectable content realism."""
    if rate_pps <= 0 or duration_s <= 0:
        raise MeasurementError("rate_pps and duration_s must be positive")
    if payload_mode not in ("http", "random", "logical"):
        raise MeasurementError(f"unknown payload_mode {payload_mode!r}")
    n = int(rate_pps * duration_s)
    times = np.sort(rng.uniform(0, duration_s, size=n))
    base = IPv4Address("198.51.100.0").value
    # addresses are immutable: build the pool once, draw indices into it
    sources = [IPv4Address(base + 1 + i) for i in range(src_pool)]
    trace = Trace(f"load-{payload_mode}")
    for t in times:
        # All modes carry exactly payload_size bytes so that content
        # *realism*, not packet size, is the experimental variable.
        if payload_mode == "http":
            body = pl.http_request(rng)[:payload_size].ljust(payload_size, b" ")
            blen = None
        elif payload_mode == "random":
            body, blen = pl.random_payload(rng, payload_size), None
        else:
            body, blen = None, payload_size
        trace.append(float(t), Packet(
            src=sources[int(rng.integers(0, src_pool))],
            dst=dst,
            sport=int(rng.integers(1024, 65535)), dport=80,
            proto=Protocol.TCP, payload=body, payload_len=blen))
    return trace
