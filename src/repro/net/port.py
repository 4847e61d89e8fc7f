"""Ports and their egress queues.

Each :class:`Port` models one full-duplex interface on a node.  Transmission
follows the usual store-and-forward state machine: packets wait in the
port's drop-tail egress queue; when the transmitter is idle the head packet
is serialised onto the attached link (``size * 8 / rate`` seconds) and then
propagated to the peer port (link propagation delay).

The port keeps the occupancy and drop accounting the paper's TPPs read
([Queue:QueueOccupancy], [Link:QueueSize], drop stats, …).  A packet sent
to an idle port goes straight to serialisation: it is counted as enqueued
and dequeued, but never touches the queue, whose occupancy it would have
left at zero anyway (a flight recorder still gets both records).

Every dataplane drop goes through :func:`drop`: it stamps the packet,
charges the drop site's ledger — ``drops_by_reason`` (packets) and
``drop_bytes_by_reason`` (bytes), keyed by the canonical categories below —
and hands the drop to the site's flight recorder.  A port is the site of
its link-down, queue-overflow and peer-down drops and of corruption on the
link into it; a switch is the site of its pipeline drops.  Every other
drop count (``Port.packets_dropped_total``, ``Link.packets_corrupted``,
``TPPSwitch.packets_dropped``) is a read of these ledgers.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .link import Link
    from .node import Node
    from .sim import Simulator

#: Canonical drop-accounting categories: :func:`drop` stamps the packet with
#: a human-readable ``drop_reason`` and charges the site's ledger under one
#: of these, so telemetry aggregates losses by cause instead of re-parsing
#: reason strings.  The first four are port categories; ``DROP_PIPELINE``
#: (drop action, invalid output port, no return route) is a switch's.
DROP_LINK_DOWN = "link-down"
DROP_QUEUE_OVERFLOW = "queue-overflow"
DROP_PEER_DOWN = "peer-down"
DROP_CORRUPTED = "corrupted"
DROP_PIPELINE = "pipeline"


def drop(site, node: str, packet: Packet, category: str, reason: str) -> None:
    """Drop ``packet`` at ``site``: stamp it, charge the ledger, record it.

    Every dataplane drop comes through here.  ``site`` is the port or
    switch charged with the drop and ``node`` the name of the node it
    belongs to.
    """
    packet.dropped = True
    packet.drop_reason = reason
    packets, dropped_bytes = site.drops_by_reason, site.drop_bytes_by_reason
    packets[category] = packets.get(category, 0) + 1
    dropped_bytes[category] = dropped_bytes.get(category, 0) + packet.size
    if site.recorder is not None:
        site.recorder.on_drop(site.name, node, packet, category, reason)


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
        # Raw counters (the switch statistics layer derives rates from these).
        self.tx_bytes = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.rx_packets = 0
        # This port's drop ledger (see drop()): packets and bytes by category.
        self.drops_by_reason: dict[str, int] = {}
        self.drop_bytes_by_reason: dict[str, int] = {}

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

    @property
    def packets_dropped_total(self) -> int:
        """Link-down and overflow drops (the switch's ``Link:Drop-*`` stats)."""
        drops = self.drops_by_reason
        return drops.get(DROP_LINK_DOWN, 0) + drops.get(DROP_QUEUE_OVERFLOW, 0)

    @property
    def bytes_dropped_total(self) -> int:
        drops = self.drop_bytes_by_reason
        return drops.get(DROP_LINK_DOWN, 0) + drops.get(DROP_QUEUE_OVERFLOW, 0)

    def attach(self, link: "Link", peer: "Port") -> None:
        self.link = link
        self.peer = peer

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
            drop(self, self.node.name, packet, DROP_LINK_DOWN,
                 f"link down at {self.name}")
            return False
        waiting = self._waiting
        if (self.occupancy_bytes + size > self.capacity_bytes
                or (self.capacity_packets is not None
                    and len(waiting) >= self.capacity_packets)):
            drop(self, self.node.name, packet, DROP_QUEUE_OVERFLOW,
                 f"queue overflow at {self.name}")
            return False
        self.bytes_enqueued_total += size
        self.packets_enqueued_total += 1
        recorder = self.recorder
        if self.transmitting:
            waiting.append(packet)
            self.occupancy_bytes += size
            if recorder is not None:
                recorder.on_enqueue(self, packet)
            return True
        if recorder is not None:
            # The packet passes through the empty queue: one hook writes
            # the ENQUEUE and DEQUEUE records a busy port would.
            recorder.on_pass_through(self, packet)
        # Idle port: straight to serialisation.
        self.transmitting = True
        self._post(size * 8.0 / link.rate_bps, self._finish_transmission, packet)
        return True

    # Kept for the frozen benchmark suite, which wraps it by name (ROADMAP 1a).
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
            # Charged to the *sending* port: the downed receive side never
            # saw the packet.
            drop(self, self.node.name, packet, DROP_PEER_DOWN, "peer port down")
            return
        link = self.link
        if link.loss_rate and link.corrupt():
            # Receive-side corruption (a failed CRC): the packet serialised
            # and propagated — tx and link counters stand — but is never
            # counted into the peer's rx counters.  That tx/rx deficit is
            # exactly what the loss-localization TPP diffs across hops.
            drop(peer, peer.node.name, packet, DROP_CORRUPTED,
                 f"corrupted on {link.name}")
            return
        peer.rx_bytes += packet.size
        peer.rx_packets += 1
        if peer.recorder is not None:
            peer.recorder.on_deliver(peer, packet)
        peer.node.receive(packet, peer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port {self.name} q={self.occupancy_packets}pkts>"
