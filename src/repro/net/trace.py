"""Serializable packet traces ("canned data with known attack content").

The paper's second lesson learned: the observed false-negative ratio is only
measurable by replaying *canned data with known attack content*.  A
:class:`Trace` is an ordered sequence of ``(time, Packet)`` records carrying
ground-truth attack labels, serializable to a compact binary format so
scenarios can be generated once and replayed deterministically against every
product under test.

Binary layout (little-endian)::

    magic   4s   b"RTRC"
    version u16  (currently 1)
    count   u32
    records:
        time     f64
        src,dst  u32 u32
        sport    u16
        dport    u16
        proto    u8   (0=TCP 1=UDP 2=ICMP)
        flags    u8
        seq,ack  u32 u32
        plen     u32  logical payload length
        blen     u32  materialized byte count (<= plen)
        alen     u16  attack_id length (0 = benign)
        payload  blen bytes
        attack   alen bytes (utf-8)

Data plane
----------
A trace is two equal-length columns: record times, which never decrease
and are always finite, and packets.  ``TimedPacket`` pairs exist only while
a trace is iterated or indexed.  The packet column is any sequence: a list
for recorded, scenario, warmup and decoded traces, or a column that builds
each packet when it is read (a generated load trace keeps per-packet
indices into shared address and payload tables and builds its packets
this way, so a packet lives only from delivery until a sensor drops or
finishes it).

``save``/``to_bytes`` pack every record into one joined buffer and issue a
single write; ``load``/``from_bytes`` map the whole file (``mmap`` when
possible) and walk it with ``struct.unpack_from`` offsets, slicing payload
bytes straight out of the single buffer.  :meth:`Trace.replay` hands both
columns to a single reusable engine cursor
(:meth:`repro.sim.engine.Engine.schedule_stream`), which reads each packet
once, when it is delivered, and reserves the sequence-number block
one-event-per-record scheduling would have consumed, so event ordering --
including ties against unrelated events -- is the same as if every record
had been scheduled up front.
"""

from __future__ import annotations

import functools
import heapq
import mmap
import os
import struct
from array import array
from math import isfinite
from typing import (Callable, Iterable, Iterator, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from ..errors import TraceFormatError
from ..sim.engine import Engine
from .address import IPv4Address
from .flow import FlowKey
from .packet import Packet, Protocol, TcpFlags

__all__ = ["TimedPacket", "Trace", "TraceRecorder"]

_MAGIC = b"RTRC"
_VERSION = 1
_HEADER = struct.Struct("<4sHI")
_RECORD = struct.Struct("<dIIHHBBIIIIH")
_PROTO_CODE = {Protocol.TCP: 0, Protocol.UDP: 1, Protocol.ICMP: 2}
_CODE_PROTO = {v: k for k, v in _PROTO_CODE.items()}


class TimedPacket(NamedTuple):
    """A ``(time, packet)`` record."""

    time: float
    packet: Packet


#: a ``TimedPacket`` from a ``(float, Packet)`` pair, one C-level call
_timed = functools.partial(tuple.__new__, TimedPacket)


def _not_finite(t: float) -> TraceFormatError:
    return TraceFormatError(f"record time {t} is not finite")


def _check_times(times: np.ndarray) -> None:
    """Raise unless every time is finite and none precedes the one before
    it; one pass over the whole column."""
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        raise _not_finite(float(times[bad[0]]))
    back = np.flatnonzero(times[1:] < times[:-1])
    if back.size:
        i = int(back[0])
        raise TraceFormatError(
            f"record at t={times[i + 1]} precedes previous t={times[i]}")


class Trace:
    """An ordered, labeled packet trace.

    Records must be appended in non-decreasing, finite time order
    (enforced), which keeps replay a single linear pass.  The records are
    kept as a times column and a packet column (see "Data plane" above).
    """

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self._times: Sequence[float] = []
        self._packets: Sequence[Packet] = []
        # cached aggregate sweeps; invalidated by append()
        self._total_bytes: Optional[int] = None
        self._benign_flows: Optional[int] = None

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def append(self, time: float, packet: Packet) -> None:
        """Add one record after the last (a trace built by
        :meth:`from_sorted` takes appends only if its packet column is a
        list)."""
        time = float(time)
        if not isfinite(time):
            raise _not_finite(time)
        times = self._times
        if times and time < times[-1]:
            raise TraceFormatError(
                f"record at t={time} precedes previous t={times[-1]}")
        times.append(time)
        self._packets.append(packet)
        self._total_bytes = None
        self._benign_flows = None

    @classmethod
    def from_sorted(cls, times, packets: Sequence[Packet],
                    name: str = "trace") -> "Trace":
        """A trace of ``zip(times, packets)``, built from whole columns.

        ``times`` (any float sequence, e.g. a numpy array) must be finite
        and never decrease, as :meth:`append` requires; the check runs once
        over the whole column instead of once per record.  The trace keeps
        the times as an ``array("d")``, which hands out plain floats, and
        ``packets`` itself as its packet column.
        """
        times = np.asarray(times, dtype=float)
        if len(times) != len(packets):
            raise TraceFormatError(
                f"{len(times)} times for {len(packets)} packets")
        _check_times(times)
        trace = cls(name)
        trace._times = array("d", times.tobytes())
        trace._packets = packets
        return trace

    def extend(self, records: Iterable[Tuple[float, Packet]]) -> None:
        for t, p in records:
            self.append(t, p)

    @staticmethod
    def merge(traces: Iterable["Trace"], name: str = "merged") -> "Trace":
        """Merge traces by time (stable across equal timestamps)."""
        merged = Trace(name)
        times, packets = merged._times, merged._packets
        streams = [list(t) for t in traces]
        for t, pkt in heapq.merge(*streams, key=lambda r: r.time):
            times.append(t)
            packets.append(pkt)
        return merged

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TimedPacket]:
        return map(_timed, zip(self._times, self._packets))

    def __getitem__(self, idx: int) -> TimedPacket:
        return _timed((self._times[idx], self._packets[idx]))

    @property
    def total_bytes(self) -> int:
        if self._total_bytes is None:
            self._total_bytes = sum(p.wire_size for p in self._packets)
        return self._total_bytes

    def benign_flow_count(self) -> int:
        """Distinct :class:`FlowKey` flows among the benign packets."""
        if self._benign_flows is None:
            self._benign_flows = len({
                FlowKey.of(p) for p in self._packets
                if p.attack_id is None})
        return self._benign_flows

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def save(self, fileobj_or_path) -> None:
        """Write the trace; accepts a path (str/``os.PathLike``/bytes) or a
        writable binary file object."""
        if isinstance(fileobj_or_path, (str, bytes, os.PathLike)):
            with open(fileobj_or_path, "wb") as fh:
                fh.write(self._encode())
        else:
            fileobj_or_path.write(self._encode())

    def _encode(self) -> bytes:
        """Pack every record, join, one buffer out."""
        parts = [_HEADER.pack(_MAGIC, _VERSION, len(self))]
        pack = _RECORD.pack
        append = parts.append
        for t, p in zip(self._times, self._packets):
            payload = p.payload or b""
            attack = (p.attack_id or "").encode("utf-8")
            append(pack(
                t,
                p.src.value,
                p.dst.value,
                p.sport,
                p.dport,
                _PROTO_CODE[p.proto],
                int(p.flags),
                p.seq & 0xFFFFFFFF,
                p.ack & 0xFFFFFFFF,
                p.payload_len,
                len(payload),
                len(attack),
            ))
            if payload:
                append(payload)
            if attack:
                append(attack)
        return b"".join(parts)

    @classmethod
    def load(cls, fileobj_or_path, name: Optional[str] = None) -> "Trace":
        """Read a trace from a path (str/``os.PathLike``/bytes path), or a
        readable binary file object.

        A ``bytes`` value that starts with the trace magic is raw trace
        *content*, not a path -- a mistake this method refuses loudly
        instead of surfacing a confusing filesystem error.
        """
        if isinstance(fileobj_or_path, bytes):
            if fileobj_or_path[:len(_MAGIC)] == _MAGIC:
                raise TraceFormatError(
                    "Trace.load was handed raw trace bytes, not a filesystem "
                    "path; decode in-memory trace data with Trace.from_bytes")
            fileobj_or_path = os.fsdecode(fileobj_or_path)
        if isinstance(fileobj_or_path, (str, os.PathLike)):
            path = os.fspath(fileobj_or_path)
            with open(path, "rb") as fh:
                try:
                    buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                except (ValueError, OSError):
                    # empty file or mmap-hostile filesystem
                    return cls._decode(fh.read(), name or str(path))
                with buf:
                    return cls._decode(buf, name or str(path))
        return cls._decode(fileobj_or_path.read(), name or "trace")

    @classmethod
    def _decode(cls, buf, name: str) -> "Trace":
        """Decode one ``bytes``/``mmap`` buffer.

        ``unpack_from`` walks fixed offsets with no per-record reads;
        payloads are sliced straight out of the buffer (an ``mmap`` slice
        materializes only the pages actually touched).  The decoded times
        column is checked once, as :meth:`from_sorted` checks its input.
        """
        end = len(buf)
        if end < _HEADER.size:
            raise TraceFormatError("truncated trace header")
        magic, version, count = _HEADER.unpack_from(buf, 0)
        if magic != _MAGIC:
            raise TraceFormatError(f"bad magic {magic!r}")
        if version != _VERSION:
            raise TraceFormatError(f"unsupported trace version {version}")
        trace = cls(name)
        times, packets = trace._times, trace._packets
        unpack_from = _RECORD.unpack_from
        rsize = _RECORD.size
        off = _HEADER.size
        for _ in range(count):
            if off + rsize > end:
                raise TraceFormatError("truncated trace record")
            (t, src, dst, sport, dport, proto_code, flags,
             seq, ack, plen, blen, alen) = unpack_from(buf, off)
            off += rsize
            if blen:
                if off + blen > end:
                    raise TraceFormatError("truncated payload")
                payload = bytes(buf[off:off + blen])
                off += blen
            else:
                payload = None
            if alen:
                if off + alen > end:
                    raise TraceFormatError("truncated attack id")
                attack_id = bytes(buf[off:off + alen]).decode("utf-8")
                off += alen
            else:
                attack_id = None
            pkt = Packet(
                src=IPv4Address(src),
                dst=IPv4Address(dst),
                sport=sport,
                dport=dport,
                proto=_CODE_PROTO[proto_code],
                flags=TcpFlags(flags),
                seq=seq,
                ack=ack,
                payload=payload,
                payload_len=plen,
                attack_id=attack_id,
            )
            times.append(t)
            packets.append(pkt)
        _check_times(np.asarray(times, dtype=float))
        return trace

    def to_bytes(self) -> bytes:
        return self._encode()

    @classmethod
    def from_bytes(cls, data: bytes, name: str = "trace") -> "Trace":
        return cls._decode(data, name)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @staticmethod
    def recorder(engine: Engine, name: str = "recorded") -> "TraceRecorder":
        """A packet sink that records everything it sees into a trace.

        Section 4: "The best way to evaluate any IDS is to use real traffic
        (live or recorded) from the site where the IDS is expected to be
        deployed."  Attach the recorder to a SPAN tap
        (``testbed.add_span_tap(rec)``), run the site's traffic, then
        ``rec.trace.save(...)`` and replay against every candidate.
        """
        return TraceRecorder(engine, name)

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def replay(
        self,
        engine: Engine,
        sink: Callable[[Packet], None],
        start_at: float = 0.0,
        speedup: float = 1.0,
    ) -> None:
        """Feed every record to ``sink`` on ``engine``'s clock.

        ``speedup > 1`` compresses inter-packet gaps (a rate-scaling knob for
        throughput sweeps); packet *content* is unchanged.  An empty trace
        schedules nothing.
        """
        if speedup <= 0:
            raise TraceFormatError("speedup must be positive")
        if self._times:
            engine.schedule_stream(
                self._times, self._packets, sink, start_at=start_at,
                speedup=speedup)


class TraceRecorder:
    """Callable packet sink that appends every packet to a trace.

    The recorded packet is a copy, so later mutation of live packets never
    corrupts the recording; ground-truth labels are preserved.
    """

    def __init__(self, engine: Engine, name: str = "recorded") -> None:
        self.engine = engine
        self.trace = Trace(name)
        self.enabled = True

    def __call__(self, pkt: Packet) -> None:
        if self.enabled:
            self.trace.append(self.engine.now, pkt.copy())

    def stop(self) -> None:
        self.enabled = False

    def __len__(self) -> int:
        return len(self.trace)
