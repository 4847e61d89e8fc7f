"""The end-host dataplane shim (§4.2).

The shim sits between applications and the host's NIC (implemented here as
transmit/receive hooks on :class:`repro.net.node.Host`).  Responsibilities:

* **Interposition** — match outgoing packets against the installed filter
  table and attach (at most one) TPP to the first match, honouring each
  rule's sampling frequency.
* **Stripping** — remove completed TPPs from incoming packets before the
  application sees them, so applications remain oblivious to TPPs.
* **Echo / dispatch** — hand fully-executed TPPs to the owning application's
  aggregator on this host, and/or echo them back to the packet's source
  (RCP* and CONGA* need the sender to see the collected state).  Echoes are
  carried as ordinary UDP payloads, not as fresh TPPs, so they are not
  re-executed on the return path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.compiler import CompiledTPP
from repro.core.packet_format import TPP
from repro.net.node import Host
from repro.net.packet import Packet, TPP_UDP_PORT, udp_packet

from .filters import FilterEntry, FilterTable

#: UDP destination port used for echoed (already-executed) TPPs.
TPP_ECHO_PORT = 0x6667

#: Signature of an application callback receiving completed TPPs:
#: ``callback(tpp, packet)`` where ``packet`` is the carrier packet.
TPPCallback = Callable[[TPP, Packet], None]


@dataclass
class AppBinding:
    """How the shim should handle completed TPPs belonging to one application."""

    app_id: int
    on_tpp: Optional[TPPCallback] = None
    echo_to_source: bool = False


class DataplaneShim:
    """Per-host packet-processing pipeline for TPP insertion and removal."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.filters = FilterTable()
        self.bindings: dict[int, AppBinding] = {}
        # Statistics.
        self.tpps_attached = 0
        self.tpp_bytes_added = 0
        self.tpps_completed = 0
        self.tpps_echoed = 0
        self.echo_bytes_sent = 0
        self.bursts_sent = 0
        host.add_tx_hook(self._on_transmit)
        host.add_rx_hook(self._on_receive)

    # ------------------------------------------------------------- provisioning
    def install_filter(self, entry: FilterEntry) -> None:
        self.filters.install(entry)

    def bind_application(self, app_id: int, on_tpp: Optional[TPPCallback] = None,
                         echo_to_source: bool = False) -> AppBinding:
        """Register what to do with completed TPPs for ``app_id`` on this host."""
        binding = AppBinding(app_id=app_id, on_tpp=on_tpp, echo_to_source=echo_to_source)
        self.bindings[app_id] = binding
        return binding

    # ---------------------------------------------------------------- transmit
    def _on_transmit(self, packet: Packet) -> None:
        """Attach a TPP to the packet when a filter rule matches (§4.2)."""
        if packet.is_tpp or packet.dport == TPP_ECHO_PORT:
            return            # never double-stamp; echoes travel as plain UDP
        entry = self.filters.match(packet)
        if entry is None or not entry.should_stamp(packet):
            return
        template = entry.tpp_template
        tpp = template.clone_tpp() if isinstance(template, CompiledTPP) else template.clone()
        tpp.app_id = entry.app_id
        packet.attach_tpp(tpp)
        self.tpps_attached += 1
        self.tpp_bytes_added += tpp.wire_length()

    def send_burst(self, packets: list[Packet]) -> int:
        """Send a burst through the interposition path, one packet at a time.

        Each packet traverses the filter table individually (so sampling
        counters stay exact); same-flow runs hit the filter table's
        one-entry memo.  Returns how many packets made it onto the wire.
        """
        self.bursts_sent += 1
        return self.host.send_many(packets)

    # ----------------------------------------------------------------- receive
    def _on_receive(self, packet: Packet, host: Host) -> bool:
        """Strip completed TPPs; dispatch/echo them; deliver echoes to apps."""
        # Echoed TPPs arrive as plain UDP payloads on the echo port.
        if packet.dport == TPP_ECHO_PORT and isinstance(packet.payload, dict) \
                and "echoed_tpp" in packet.payload:
            self._dispatch_echo(packet)
            return True

        if packet.tpp is None:
            return False

        tpp = packet.detach_tpp()
        self.tpps_completed += 1
        # Stamp the arrival time before handing the TPP to aggregators: they
        # index samples by when the carrier packet reached this host.
        if packet.delivered_at is None:
            packet.delivered_at = self.host.sim.now
        binding = self.bindings.get(tpp.app_id)
        if binding is not None:
            if binding.on_tpp is not None:
                binding.on_tpp(tpp, packet)
            if binding.echo_to_source:
                self._echo(tpp, packet)
        elif packet.tpp_standalone or packet.dport == TPP_UDP_PORT:
            # Standalone probes with no local consumer are echoed back to the
            # sender by default (§4.2: "echoes any standalone TPPs that have
            # finished executing back to the packet's source IP address").
            self._echo(tpp, packet)

        if packet.tpp_standalone or packet.dport == TPP_UDP_PORT:
            return True       # probe packets carry no application payload
        return False          # let the host deliver the (now TPP-free) packet

    # ------------------------------------------------------------------ echoes
    def _echo(self, tpp: TPP, original: Packet) -> None:
        """Send the executed TPP back to the original sender as a UDP payload."""
        if original.src == self.host.name:
            return
        echo = udp_packet(self.host.name, original.src, payload_bytes=tpp.wire_length(),
                          sport=TPP_ECHO_PORT, dport=TPP_ECHO_PORT,
                          flow_id=original.flow_id, created_at=self.host.sim.now)
        echo.payload = {
            "echoed_tpp": tpp,
            "app_id": tpp.app_id,
            "original_dst": original.dst,
            "original_dport": original.dport,
            "original_vlan": original.vlan,
            "request_id": original.metadata.get("request_id"),
            "metadata": dict(original.metadata),
            "path": list(original.path),
        }
        self.tpps_echoed += 1
        self.echo_bytes_sent += echo.size
        self.host.send(echo)

    def _dispatch_echo(self, packet: Packet) -> None:
        """Deliver an echoed TPP to the owning application's callback."""
        tpp: TPP = packet.payload["echoed_tpp"]
        binding = self.bindings.get(packet.payload.get("app_id", tpp.app_id))
        if binding is not None and binding.on_tpp is not None:
            binding.on_tpp(tpp, packet)

    # --------------------------------------------------------------- reporting
    @property
    def overhead_bytes(self) -> int:
        """Extra bytes this shim added to the host's transmitted traffic."""
        return self.tpp_bytes_added + self.echo_bytes_sent

    def counters(self) -> dict[str, int]:
        """This shim's instrumentation accounting (``shim.<name>``)."""
        return {
            "tpps_attached": self.tpps_attached,
            "tpp_bytes_added": self.tpp_bytes_added,
            "tpps_completed": self.tpps_completed,
            "tpps_echoed": self.tpps_echoed,
            "echo_bytes_sent": self.echo_bytes_sent,
            "overhead_bytes": self.overhead_bytes,
            "bursts_sent": self.bursts_sent,
        }
