"""Network nodes: the abstract :class:`Node` and the end-host :class:`Host`.

Switches live in :mod:`repro.switches.switch`; this module only provides the
pieces the network substrate needs to wire a topology together.

A :class:`Host` exposes two hook points used by the end-host stack (§4):

* ``tx_hooks`` run on every outgoing packet (the dataplane shim uses this to
  attach TPPs according to its filter table), and
* ``rx_hooks`` run on every incoming packet *before* application delivery
  (the shim uses this to strip completed TPPs, echo standalone probes back to
  their source, and hand results to aggregators).
"""

from __future__ import annotations

from typing import Callable, Optional

from .packet import Packet
from .port import Port
from .sim import Simulator

# A transmit hook may mutate the packet (e.g. attach a TPP).
TxHook = Callable[[Packet], None]
# A receive hook returns True when it fully consumed the packet.
RxHook = Callable[[Packet, "Host"], bool]


class Node:
    """Anything with ports that can receive packets."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: list[Port] = []
        # Flight-recorder tap (repro.obs.flightrec); None by default, every
        # record site guards on it so untapped nodes pay one attribute load.
        self.recorder = None

    def add_port(self, queue_capacity_bytes: int = 512 * 1024,
                 queue_capacity_packets: Optional[int] = None) -> Port:
        port = Port(self, len(self.ports), queue_capacity_bytes, queue_capacity_packets)
        self.ports.append(port)
        return port

    def receive(self, packet: Packet, in_port: Port) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} ports={len(self.ports)}>"


class Host(Node):
    """An end host: a single-homed traffic source/sink with stack hook points."""

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self.tx_hooks: list[TxHook] = []
        self.rx_hooks: list[RxHook] = []
        self._listeners: dict[int, Callable[[Packet], None]] = {}
        self.default_listener: Optional[Callable[[Packet], None]] = None
        self.packets_sent = 0
        self.packets_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.received_log: list[Packet] = []
        self.keep_received_log = False

    # ------------------------------------------------------------- wiring
    @property
    def uplink_port(self) -> Port:
        """The host's (single) attachment port."""
        if not self.ports:
            raise RuntimeError(f"host {self.name} has no ports")
        return self.ports[0]

    def add_tx_hook(self, hook: TxHook) -> None:
        self.tx_hooks.append(hook)

    def add_rx_hook(self, hook: RxHook) -> None:
        self.rx_hooks.append(hook)

    def listen(self, dport: int, callback: Callable[[Packet], None]) -> None:
        """Deliver packets destined to ``dport`` to ``callback``."""
        self._listeners[dport] = callback

    # --------------------------------------------------------------- traffic
    def send(self, packet: Packet) -> bool:
        """Send a packet out of the host's uplink, running transmit hooks."""
        packet.created_at = packet.created_at or self.sim.now
        for hook in self.tx_hooks:
            hook(packet)
        self.packets_sent += 1
        self.bytes_sent += packet.size
        packet.record_hop(self.name)
        if self.recorder is not None:
            # After the tx hooks: the recorder sees the packet as it enters
            # the wire path, TPP attached.
            self.recorder.on_host_send(self, packet)
        return self.uplink_port.send(packet)

    def send_many(self, packets: list[Packet]) -> int:
        """Send a burst: one :meth:`send` per packet, in order.

        Returns how many packets were accepted onto the uplink queue.
        """
        return sum(map(self.send, packets))

    def receive(self, packet: Packet, in_port: Port) -> None:
        packet.record_hop(self.name)
        for hook in self.rx_hooks:
            if hook(packet, self):
                return
        self.deliver(packet)

    def deliver(self, packet: Packet) -> None:
        """Hand a packet to the local application layer."""
        self.packets_received += 1
        self.bytes_received += packet.size
        packet.delivered_at = self.sim.now
        if self.keep_received_log:
            self.received_log.append(packet)
        listener = self._listeners.get(packet.dport, self.default_listener)
        if listener is not None:
            listener(packet)

    def counters(self) -> dict[str, int]:
        """This host's send/receive accounting (``host.<name>``)."""
        return {
            "packets_sent": self.packets_sent,
            "packets_received": self.packets_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }
