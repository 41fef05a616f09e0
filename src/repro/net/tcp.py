"""TCP session generation.

:func:`build_session` generates a *valid* packet sequence (handshake, data
segments, teardown) for the traffic generators, so that canned traces
contain protocol-correct sessions rather than random datagrams.
"""

from __future__ import annotations

from typing import List, Optional

from .address import IPv4Address
from .packet import Packet, Protocol, TcpFlags

__all__ = ["build_session", "MSS"]

MSS = 1460  # maximum segment size used by the generators


def build_session(
    src: IPv4Address,
    dst: IPv4Address,
    sport: int,
    dport: int,
    request: bytes = b"",
    response: bytes = b"",
    isn_client: int = 1000,
    isn_server: int = 5000,
    attack_id: Optional[str] = None,
    teardown: bool = True,
    mss: int = MSS,
) -> List[Packet]:
    """Generate the packet sequence of a complete, valid TCP session.

    Handshake, client request segments, server response segments, and
    (optionally) a FIN/ACK teardown.  All packets carry the same
    ``attack_id`` ground truth.
    """
    if mss <= 0:
        raise ValueError("mss must be positive")
    pkts: List[Packet] = []

    def p(**kw) -> Packet:
        kw.setdefault("proto", Protocol.TCP)
        kw.setdefault("attack_id", attack_id)
        pkt = Packet(**kw)
        pkts.append(pkt)
        return pkt

    # Three-way handshake.
    p(src=src, dst=dst, sport=sport, dport=dport, flags=TcpFlags.SYN, seq=isn_client)
    p(src=dst, dst=src, sport=dport, dport=sport,
      flags=TcpFlags.SYN | TcpFlags.ACK, seq=isn_server, ack=isn_client + 1)
    p(src=src, dst=dst, sport=sport, dport=dport,
      flags=TcpFlags.ACK, seq=isn_client + 1, ack=isn_server + 1)

    # Client request.
    cseq = isn_client + 1
    for off in range(0, len(request), mss):
        chunk = request[off:off + mss]
        p(src=src, dst=dst, sport=sport, dport=dport,
          flags=TcpFlags.ACK | TcpFlags.PSH, seq=cseq, ack=isn_server + 1,
          payload=chunk)
        cseq += len(chunk)

    # Server response.
    sseq = isn_server + 1
    for off in range(0, len(response), mss):
        chunk = response[off:off + mss]
        p(src=dst, dst=src, sport=dport, dport=sport,
          flags=TcpFlags.ACK | TcpFlags.PSH, seq=sseq, ack=cseq,
          payload=chunk)
        sseq += len(chunk)

    # Acknowledge the response.
    if response:
        p(src=src, dst=dst, sport=sport, dport=dport,
          flags=TcpFlags.ACK, seq=cseq, ack=sseq)

    if teardown:
        p(src=src, dst=dst, sport=sport, dport=dport,
          flags=TcpFlags.FIN | TcpFlags.ACK, seq=cseq, ack=sseq)
        p(src=dst, dst=src, sport=dport, dport=sport,
          flags=TcpFlags.FIN | TcpFlags.ACK, seq=sseq, ack=cseq + 1)
        p(src=src, dst=dst, sport=sport, dport=dport,
          flags=TcpFlags.ACK, seq=cseq + 1, ack=sseq + 1)

    return pkts
