"""The v1 trace codec and eager replay, as reference oracles.

``write``/``read`` issue one stream call per field group per record, over
struct layouts declared here from the format in :mod:`repro.net.trace`'s
docstring.  ``replay_scheduled`` heap-inserts one event per record up
front.  ``tests/net/test_trace_dataplane.py`` requires the production
batched codec to match them byte for byte and field for field, and
:meth:`repro.net.trace.Trace.replay` to deliver events in the same order.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Callable

from repro.errors import TraceFormatError
from repro.net.address import IPv4Address
from repro.net.packet import Packet, Protocol, TcpFlags
from repro.net.trace import Trace
from repro.sim.engine import Engine

MAGIC = b"RTRC"
VERSION = 1
HEADER = struct.Struct("<4sHI")
RECORD = struct.Struct("<dIIHHBBIIIIH")
PROTO_CODE = {Protocol.TCP: 0, Protocol.UDP: 1, Protocol.ICMP: 2}
CODE_PROTO = {v: k for k, v in PROTO_CODE.items()}


def write(trace: Trace, fh: BinaryIO) -> None:
    """Encode ``trace`` with one ``write`` per field group per record."""
    fh.write(HEADER.pack(MAGIC, VERSION, len(trace)))
    for t, p in trace:
        payload = p.payload or b""
        attack = (p.attack_id or "").encode("utf-8")
        fh.write(
            RECORD.pack(
                t,
                p.src.value,
                p.dst.value,
                p.sport,
                p.dport,
                PROTO_CODE[p.proto],
                int(p.flags),
                p.seq & 0xFFFFFFFF,
                p.ack & 0xFFFFFFFF,
                p.payload_len,
                len(payload),
                len(attack),
            )
        )
        fh.write(payload)
        fh.write(attack)


def read(fh: BinaryIO, name: str) -> Trace:
    """Decode a trace with one stream ``read`` per field group."""
    head = fh.read(HEADER.size)
    if len(head) != HEADER.size:
        raise TraceFormatError("truncated trace header")
    magic, version, count = HEADER.unpack(head)
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise TraceFormatError(f"unsupported trace version {version}")
    trace = Trace(name)
    for _ in range(count):
        raw = fh.read(RECORD.size)
        if len(raw) != RECORD.size:
            raise TraceFormatError("truncated trace record")
        (t, src, dst, sport, dport, proto_code, flags,
         seq, ack, plen, blen, alen) = RECORD.unpack(raw)
        payload = fh.read(blen) if blen else None
        if payload is not None and len(payload) != blen:
            raise TraceFormatError("truncated payload")
        attack_raw = fh.read(alen)
        if len(attack_raw) != alen:
            raise TraceFormatError("truncated attack id")
        trace.append(t, Packet(
            src=IPv4Address(src),
            dst=IPv4Address(dst),
            sport=sport,
            dport=dport,
            proto=CODE_PROTO[proto_code],
            flags=TcpFlags(flags),
            seq=seq,
            ack=ack,
            payload=payload,
            payload_len=plen,
            attack_id=attack_raw.decode("utf-8") if alen else None,
        ))
    return trace


def replay_scheduled(trace: Trace, engine: Engine,
                     sink: Callable[[Packet], None], start_at: float = 0.0,
                     speedup: float = 1.0) -> None:
    """Schedule one engine event per record, all up front."""
    if speedup <= 0:
        raise TraceFormatError("speedup must be positive")
    if not len(trace):
        return
    t0 = trace[0].time
    for t, pkt in trace:
        engine.schedule_at(start_at + (t - t0) / speedup, sink, pkt)
