"""Link model: bandwidth, propagation delay, finite queue, drops.

The link is the testbed's queueing element.  It matters for three paper
metrics: *Induced Traffic Latency* (an in-line IDS adds a store-and-forward
hop), *Maximal Throughput with Zero Loss* (the offered rate where queue drops
begin) and *Network Lethal Dose* (the rate at which a device collapses).

The implementation is callback-based and O(1) per packet: the transmitter
keeps a ``busy_until`` horizon; a packet arriving at ``t`` begins
serialization at ``max(t, busy_until)``, provided the backlog it would wait
behind fits the queue, and is delivered after serialization + propagation.
Conservation (offered = delivered + dropped + in-flight) holds exactly.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import ConfigurationError
from ..sim.engine import Engine
from .packet import Packet

__all__ = ["Link"]

PacketSink = Callable[[Packet], None]


class Link:
    """A unidirectional link with finite buffering.

    Parameters
    ----------
    engine:
        Simulation engine.
    bandwidth_bps:
        Serialization rate in bits per second.
    propagation_delay:
        Constant per-packet propagation delay in seconds.
    queue_bytes:
        Transmit buffer size.  A packet is dropped when the bytes already
        queued (excluding the one currently serializing) would exceed this.
    sink:
        Callable invoked with each delivered packet.
    name:
        Label used in reports.
    """

    def __init__(
        self,
        engine: Engine,
        bandwidth_bps: float = 100e6,
        propagation_delay: float = 50e-6,
        queue_bytes: int = 256 * 1024,
        sink: Optional[PacketSink] = None,
        name: str = "link",
    ) -> None:
        if bandwidth_bps <= 0:
            raise ConfigurationError("bandwidth_bps must be positive")
        if propagation_delay < 0:
            raise ConfigurationError("propagation_delay must be non-negative")
        if queue_bytes < 0:
            raise ConfigurationError("queue_bytes must be non-negative")
        self.engine = engine
        self.bandwidth_bps = float(bandwidth_bps)
        self.propagation_delay = float(propagation_delay)
        self.queue_bytes = int(queue_bytes)
        self.sink = sink
        self.name = name

        self._busy_until = 0.0
        self._queued_bytes = 0  # bytes accepted but not yet fully serialized

        # counters
        self.offered_packets = 0
        self.offered_bytes = 0
        self.delivered_packets = 0
        self.delivered_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Offer a packet to the link.

        Returns ``True`` if the packet was accepted (it will be delivered),
        ``False`` if it was dropped at the queue.
        """
        now = self.engine.now
        size = pkt.wire_size
        self.offered_packets += 1
        self.offered_bytes += size

        # Backlog the packet would join (bytes not yet fully serialized).
        # The in-service packet does not consume buffer, so a fully idle
        # link accepts any packet even with queue_bytes == 0.
        if self._queued_bytes > 0 and self._queued_bytes + size > self.queue_bytes:
            self.dropped_packets += 1
            self.dropped_bytes += size
            return False

        start = max(now, self._busy_until)
        tx_time = size * 8.0 / self.bandwidth_bps
        finish = start + tx_time
        self._busy_until = finish
        self._queued_bytes += size
        deliver_at = finish + self.propagation_delay
        self.engine.schedule_at(deliver_at, self._deliver, pkt, size)
        return True

    def _deliver(self, pkt: Packet, size: int) -> None:
        self._queued_bytes -= size
        self.delivered_packets += 1
        self.delivered_bytes += size
        if self.sink is not None:
            self.sink(pkt)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Link {self.name!r} {self.bandwidth_bps/1e6:.0f}Mbps "
            f"q={self._queued_bytes}B drop={self.dropped_packets}>"
        )
