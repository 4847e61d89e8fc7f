"""Ports and their egress queues.

Each :class:`Port` models one full-duplex interface on a node.  Transmission
follows the usual store-and-forward state machine: packets wait in the
port's drop-tail egress queue; when the transmitter is idle the head packet
is serialised onto the attached link (``size * 8 / rate`` seconds) and then
propagated to the peer port (link propagation delay).

The port keeps the occupancy and drop accounting the paper's TPPs read
([Queue:QueueOccupancy], [Link:QueueSize], drop stats, …).  A packet sent
to an idle, unrecorded port goes straight to serialisation: it is counted
as enqueued and dequeued, but never touches the queue, whose occupancy it
would have left at zero anyway.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .link import Link
    from .node import Node
    from .sim import Simulator

#: Canonical drop-accounting categories.  Every drop site stamps the packet
#: with a human-readable ``drop_reason`` *and* counts the drop under one of
#: these categories in the owning port's ``drops_by_reason``, so experiment
#: telemetry can aggregate losses by cause instead of re-parsing reason
#: strings off individual packets.
DROP_LINK_DOWN = "link-down"
DROP_QUEUE_OVERFLOW = "queue-overflow"
DROP_PEER_DOWN = "peer-down"
DROP_CORRUPTED = "corrupted"


class Port:
    """One interface of a node: a drop-tail egress queue and a transmitter."""

    def __init__(self, node: "Node", index: int,
                 queue_capacity_bytes: float = 512 * 1024,
                 queue_capacity_packets: Optional[int] = None) -> None:
        self._name = f"{node.name}.p{index}"
        if not queue_capacity_bytes > 0:          # also rejects NaN
            raise ValueError(f"port {self._name}: queue capacity_bytes must be "
                             f"positive, got {queue_capacity_bytes!r}")
        if queue_capacity_packets is not None and queue_capacity_packets < 1:
            raise ValueError(f"port {self._name}: queue capacity_packets must be "
                             f"at least 1, got {queue_capacity_packets!r}")
        self.node = node
        self.index = index
        self.link: Optional["Link"] = None
        self.peer: Optional["Port"] = None
        self.transmitting = False
        self.up = True
        # Flight-recorder tap (repro.obs.flightrec).  None by default: every
        # hook site below guards on it, so an untapped port runs exactly the
        # pre-recorder code path (the recorder-off byte-identity invariant).
        self.recorder = None
        # Egress queue: packets waiting behind the one being serialised.
        self._waiting: deque[Packet] = deque()
        self._post = node.sim.post
        self.capacity_bytes = queue_capacity_bytes
        self.capacity_packets = queue_capacity_packets
        #: Bytes currently waiting in the queue.
        self.occupancy_bytes = 0
        # Everything enqueued has been dequeued or is still waiting, so the
        # dequeued totals are derived (see the properties below).
        self.bytes_enqueued_total = 0
        self.packets_enqueued_total = 0
        # Link-down and overflow drops (the switch's ``Link:Drop-*`` stats).
        self.bytes_dropped_total = 0
        self.packets_dropped_total = 0
        # Raw counters (the switch statistics layer derives rates from these).
        self.tx_bytes = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.rx_packets = 0
        self.error_packets = 0
        # Drops at this port, keyed by the categories above.
        self.drops_by_reason: dict[str, int] = {}

    # -------------------------------------------------------------- identity
    @property
    def name(self) -> str:
        return self._name

    @property
    def sim(self) -> "Simulator":
        return self.node.sim

    @property
    def rate_bps(self) -> float:
        if self.link is None:
            raise RuntimeError(f"port {self.name} is not attached to a link")
        return self.link.rate_bps

    @property
    def occupancy_packets(self) -> int:
        """Packets currently waiting in the queue."""
        return len(self._waiting)

    @property
    def packets_dequeued_total(self) -> int:
        """Packets that left the queue for the transmitter."""
        return self.packets_enqueued_total - len(self._waiting)

    @property
    def bytes_dequeued_total(self) -> int:
        return self.bytes_enqueued_total - self.occupancy_bytes

    def attach(self, link: "Link", peer: "Port") -> None:
        self.link = link
        self.peer = peer

    def count_drop(self, category: str) -> None:
        """Count one drop at this port under a canonical category."""
        self.drops_by_reason[category] = self.drops_by_reason.get(category, 0) + 1

    # ------------------------------------------------------------ transmit path
    def send(self, packet: Packet) -> bool:
        """Queue a packet for transmission out of this port.

        Returns False when the packet was dropped (queue overflow or link
        down); the caller is responsible for any loss handling.
        """
        link = self.link
        if link is None or self.peer is None:
            raise RuntimeError(f"port {self.name} is not connected")
        size = packet.size
        if not self.up or not link.up:
            packet.dropped = True
            packet.drop_reason = f"link down at {self.name}"
            self.packets_dropped_total += 1
            self.bytes_dropped_total += size
            self.count_drop(DROP_LINK_DOWN)
            if self.recorder is not None:
                self.recorder.on_drop(self._name, self.node.name, packet,
                                      DROP_LINK_DOWN, packet.drop_reason)
            return False
        waiting = self._waiting
        if (self.occupancy_bytes + size > self.capacity_bytes
                or (self.capacity_packets is not None
                    and len(waiting) >= self.capacity_packets)):
            self.bytes_dropped_total += size
            self.packets_dropped_total += 1
            packet.dropped = True
            packet.drop_reason = f"queue overflow at {self.name}"
            self.count_drop(DROP_QUEUE_OVERFLOW)
            if self.recorder is not None:
                self.recorder.on_drop(self._name, self.node.name, packet,
                                      DROP_QUEUE_OVERFLOW, packet.drop_reason)
            self.node.on_packet_dropped(packet, self)
            return False
        self.bytes_enqueued_total += size
        self.packets_enqueued_total += 1
        recorder = self.recorder
        if self.transmitting or recorder is not None:
            # A recorded port queues even when idle, so its ENQUEUE record
            # sees the packet in the queue and its DEQUEUE record sees it
            # leave, exactly as on a busy port.
            waiting.append(packet)
            self.occupancy_bytes += size
            if recorder is None:
                return True
            recorder.on_enqueue(self, packet)
            if self.transmitting:
                return True
            waiting.popleft()
            self.occupancy_bytes -= size
            recorder.on_dequeue(self, packet)
        # Idle port: straight to serialisation.
        self.transmitting = True
        self._post(size * 8.0 / link.rate_bps, self._finish_transmission, packet)
        return True

    def send_many(self, packets: list[Packet]) -> int:
        """Queue a burst: one :meth:`send` per packet, in order.

        Returns how many packets were accepted (the rest were dropped, with
        per-packet drop accounting).
        """
        return sum(map(self.send, packets))

    def _finish_transmission(self, packet: Packet) -> None:
        size = packet.size
        self.tx_bytes += size
        self.tx_packets += 1
        link = self.link
        link.total_bytes += size
        link.total_packets += 1
        # Propagation of this packet first, then the serialisation of the
        # next one: on a busy port the two events are posted at the same
        # instant, and their sequence numbers fix their relative order.
        post = self._post
        post(link.delay_s, self._deliver_to_peer, packet)
        waiting = self._waiting
        if not waiting:
            self.transmitting = False
            return
        packet = waiting.popleft()
        size = packet.size
        self.occupancy_bytes -= size
        if self.recorder is not None:
            self.recorder.on_dequeue(self, packet)
        post(size * 8.0 / link.rate_bps, self._finish_transmission, packet)

    def _deliver_to_peer(self, packet: Packet) -> None:
        peer = self.peer
        if peer is None or not peer.up:
            packet.dropped = True
            packet.drop_reason = "peer port down"
            self.count_drop(DROP_PEER_DOWN)
            if self.recorder is not None:
                # Counted at the *sending* port, like the drop itself: the
                # downed receive side never saw the packet.
                self.recorder.on_drop(self._name, self.node.name, packet,
                                      DROP_PEER_DOWN, packet.drop_reason)
            return
        link = self.link
        if link.loss_rate and link.corrupt(packet):
            # Receive-side corruption (a failed CRC): the packet serialised
            # and propagated — tx and link counters stand — but is never
            # counted into the peer's rx counters.  That tx/rx deficit is
            # exactly what the loss-localization TPP diffs across hops.
            peer.error_packets += 1
            peer.count_drop(DROP_CORRUPTED)
            if peer.recorder is not None:
                peer.recorder.on_drop(peer._name, peer.node.name, packet,
                                      DROP_CORRUPTED, packet.drop_reason)
            return
        peer.rx_bytes += packet.size
        peer.rx_packets += 1
        if peer.recorder is not None:
            peer.recorder.on_deliver(peer, packet)
        peer.node.receive(packet, peer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port {self.name} q={self.occupancy_packets}pkts>"
