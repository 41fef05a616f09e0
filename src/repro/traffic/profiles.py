"""Site traffic profiles.

Section 4 of the paper: "Distributed systems with high levels of inter-host
trust on a high-speed LAN will have distinctive traffic compared to that of a
web server in an e-commerce shop."  These two profiles are exactly those two
sites; the evaluation harness runs both because commercial IDSs are "often
geared toward the latter and not perform well in the former situation".

Profiles are *trace factories*: they generate labeled, reproducible
:class:`~repro.net.trace.Trace` objects of benign background traffic that the
mixer combines with attack traffic.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..net.address import IPv4Address, Subnet
from ..net.packet import Packet, Protocol
from ..net.tcp import build_session
from ..net.trace import Trace
from . import payload as pl
from .generators import constant_rate_arrivals, onoff_arrivals, poisson_arrivals

__all__ = ["TrafficProfile", "ClusterProfile", "EcommerceProfile"]

_EPHEMERAL_LO, _EPHEMERAL_HI = 1024, 65535


def _session_trace(
    trace_records: list,
    t0: float,
    pkts: Sequence[Packet],
    gap: float,
) -> None:
    """Append a session's packets spaced ``gap`` seconds apart."""
    for i, pkt in enumerate(pkts):
        trace_records.append((t0 + i * gap, pkt))



class TrafficProfile:
    """Base class: a named generator of benign background traces."""

    name = "base"

    def generate(self, duration_s: float, rng: np.random.Generator) -> Trace:
        raise NotImplementedError

    @staticmethod
    def _finish(name: str, records: list) -> Trace:
        records.sort(key=lambda r: r[0])
        trace = Trace(name)
        trace.extend(records)
        return trace


class ClusterProfile(TrafficProfile):
    """Distributed real-time cluster traffic.

    Structure:

    * every node streams fixed-format UDP telemetry to the master at a
      clocked rate with small jitter (hard real-time flavour);
    * trusted node pairs exchange short TCP control sessions
      (``cluster_command`` request, telemetry-style ack);
    * a sparse heartbeat ICMP mesh.

    Parameters
    ----------
    nodes:
        Addresses of the cluster nodes; ``nodes[0]`` acts as master.
    telemetry_hz:
        Per-node telemetry message rate.
    control_rate_per_s:
        Cluster-wide TCP control-session start rate.
    """

    name = "cluster-rt"

    def __init__(
        self,
        nodes: Sequence[IPv4Address],
        telemetry_hz: float = 20.0,
        control_rate_per_s: float = 2.0,
        heartbeat_hz: float = 1.0,
        rate_scale: float = 1.0,
    ) -> None:
        if len(nodes) < 2:
            raise ConfigurationError("cluster profile needs >= 2 nodes")
        if rate_scale <= 0:
            raise ConfigurationError("rate_scale must be positive")
        self.nodes = list(nodes)
        self.telemetry_hz = telemetry_hz * rate_scale
        self.control_rate_per_s = control_rate_per_s * rate_scale
        self.heartbeat_hz = heartbeat_hz

    def generate(self, duration_s: float, rng: np.random.Generator) -> Trace:
        records: list = []
        master = self.nodes[0]

        # Telemetry: node -> master, clocked UDP.
        for node_id, node in enumerate(self.nodes[1:], start=1):
            times = constant_rate_arrivals(
                self.telemetry_hz, duration_s,
                jitter_rng=rng, jitter_frac=0.05,
            )
            for t in times:
                body = pl.cluster_telemetry(rng, node_id)
                pkt = Packet(src=node, dst=master, sport=7100 + node_id,
                             dport=7000, proto=Protocol.UDP, payload=body)
                records.append((float(t), pkt))

        # Control sessions between trusted pairs.
        starts = poisson_arrivals(rng, self.control_rate_per_s, duration_s)
        for t in starts:
            i, j = rng.choice(len(self.nodes), size=2, replace=False)
            src, dst = self.nodes[int(i)], self.nodes[int(j)]
            sport = int(rng.integers(_EPHEMERAL_LO, _EPHEMERAL_HI))
            cmd = ["sync", "rebalance", "status", "checkpoint"][int(rng.integers(0, 4))]
            req = pl.cluster_command(int(i), cmd, float(rng.random()))
            resp = pl.cluster_telemetry(rng, int(j), n_samples=4)
            pkts = build_session(src, dst, sport, 7001, request=req, response=resp,
                                 isn_client=int(rng.integers(1, 2**31)),
                                 isn_server=int(rng.integers(1, 2**31)))
            _session_trace(records, float(t), pkts, gap=0.2e-3)

        # Heartbeats: ICMP master -> each node.
        if self.heartbeat_hz > 0:
            for node in self.nodes[1:]:
                times = constant_rate_arrivals(self.heartbeat_hz, duration_s)
                for t in times:
                    records.append((float(t), Packet(
                        src=master, dst=node, proto=Protocol.ICMP,
                        payload_len=16)))

        return self._finish(self.name, records)


class EcommerceProfile(TrafficProfile):
    """E-commerce web-server traffic: the commercial-IDS home turf.

    External clients open HTTP sessions against the server following a
    Poisson arrival process; responses have heavy-tailed sizes.  A slower
    SMTP trickle and bursty bulk transfers round out the mix.
    """

    name = "ecommerce-web"

    def __init__(
        self,
        server: IPv4Address,
        client_subnet: str = "198.51.100.0/24",
        session_rate_per_s: float = 5.0,
        smtp_rate_per_s: float = 0.2,
        bulk_rate_per_s: float = 0.5,
        rate_scale: float = 1.0,
    ) -> None:
        if rate_scale <= 0:
            raise ConfigurationError("rate_scale must be positive")
        self.server = server
        self.client_subnet = Subnet(client_subnet)
        self.session_rate_per_s = session_rate_per_s * rate_scale
        self.smtp_rate_per_s = smtp_rate_per_s * rate_scale
        self.bulk_rate_per_s = bulk_rate_per_s * rate_scale
        self._clients: List[IPv4Address] = [
            self.client_subnet.network + (1 + k) for k in range(200)
        ]

    def _client(self, rng: np.random.Generator) -> IPv4Address:
        return self._clients[int(rng.integers(0, len(self._clients)))]

    def generate(self, duration_s: float, rng: np.random.Generator) -> Trace:
        records: list = []

        # HTTP sessions.
        for t in poisson_arrivals(rng, self.session_rate_per_s, duration_s):
            client = self._client(rng)
            sport = int(rng.integers(_EPHEMERAL_LO, _EPHEMERAL_HI))
            req = pl.http_request(rng)
            resp = pl.http_response(rng)
            pkts = build_session(client, self.server, sport, 80,
                                 request=req, response=resp,
                                 isn_client=int(rng.integers(1, 2**31)),
                                 isn_server=int(rng.integers(1, 2**31)))
            _session_trace(records, float(t), pkts, gap=2e-3)

        # SMTP trickle.
        for t in poisson_arrivals(rng, self.smtp_rate_per_s, duration_s):
            client = self._client(rng)
            sport = int(rng.integers(_EPHEMERAL_LO, _EPHEMERAL_HI))
            pkts = build_session(client, self.server, sport, 25,
                                 request=pl.smtp_exchange(rng),
                                 response=b"250 OK\r\n",
                                 isn_client=int(rng.integers(1, 2**31)),
                                 isn_server=int(rng.integers(1, 2**31)))
            _session_trace(records, float(t), pkts, gap=5e-3)

        # Bursty bulk UDP transfers (content-distribution-ish).
        for t in onoff_arrivals(rng, self.bulk_rate_per_s * 50, duration_s,
                                mean_on_s=0.5, mean_off_s=8.0):
            client = self._client(rng)
            records.append((float(t), Packet(
                src=self.server, dst=client, sport=8000,
                dport=int(rng.integers(_EPHEMERAL_LO, _EPHEMERAL_HI)),
                proto=Protocol.UDP, payload_len=1200)))

        return self._finish(self.name, records)
