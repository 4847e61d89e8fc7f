"""Packet model used by the network substrate.

A :class:`Packet` models an Ethernet frame carrying an (optional) IP/UDP/TCP
payload, plus an optional attached TPP (a ``repro.core.packet_format.TPP``
instance — kept untyped here to avoid a circular dependency between the
network substrate and the TPP core).

Sizes are in bytes, and ``size`` always reflects the full on-wire size
including any attached TPP, so serialisation delays and bandwidth overheads
(e.g. the §2.2 / §2.3 overhead experiments) fall out of the link model for
free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

# Header sizes used consistently across the library (bytes).
ETHERNET_HEADER_BYTES = 14
ETHERNET_OVERHEAD_BYTES = 24       # preamble + SFD + FCS + IFG, used for line-rate math
IPV4_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
TCP_HEADER_BYTES = 20

#: The values ``Packet.protocol`` takes.
PROTOCOLS = ("udp", "tcp", "raw")

# Identifiers the paper reserves for TPPs (§3.4).
TPP_ETHERTYPE = 0x6666
TPP_UDP_PORT = 0x6666

_packet_ids = itertools.count(1)


@dataclass
class Packet:
    """A network packet.

    Attributes:
        src: source host name (stands in for the source IP/MAC).
        dst: destination host name.
        size: total on-wire size in bytes, including attached TPP bytes.
        protocol: "udp", "tcp", or "raw".
        sport, dport: transport ports.
        vlan: VLAN tag; used by the multipath "group table" for path selection
            (§2.4 lets end-hosts pick paths by changing a header tag).
        flow_id: opaque flow identifier used by flow generators and ECMP.
        tpp: the attached tiny packet program, if any.
        tpp_standalone: True when the packet *is* a TPP probe (ethertype
            0x6666) rather than a data packet with a piggy-backed TPP.
        payload: application payload descriptor (opaque to the network).
        created_at: simulation time the packet was created.
        metadata: scratch space for applications and instrumentation.
    """

    src: str
    dst: str
    size: int
    protocol: str = "udp"
    sport: int = 0
    dport: int = 0
    vlan: int = 0
    flow_id: int = 0
    tpp: Optional[Any] = None
    tpp_standalone: bool = False
    payload: Any = None
    created_at: float = 0.0
    metadata: dict = field(default_factory=dict)
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    # Filled in by the network as the packet travels.
    path: list = field(default_factory=list)
    dropped: bool = False
    drop_reason: str = ""
    delivered_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"packet size must be positive, got {self.size}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"packet protocol must be one of {', '.join(PROTOCOLS)}, "
                             f"got {self.protocol!r}")

    # ------------------------------------------------------------------ TPP
    @property
    def is_tpp(self) -> bool:
        """True when the packet carries a TPP (piggy-backed or standalone)."""
        return self.tpp is not None

    def attach_tpp(self, tpp: Any, standalone: bool = False) -> None:
        """Attach a TPP, growing the on-wire size by the TPP's byte length."""
        if self.tpp is not None:
            raise ValueError("packet already carries a TPP; only one TPP per packet (§4.2)")
        self.tpp = tpp
        self.tpp_standalone = standalone
        self.size += tpp.wire_length()

    def detach_tpp(self) -> Any:
        """Strip the TPP, shrinking the packet back to its original size."""
        if self.tpp is None:
            raise ValueError("packet does not carry a TPP")
        tpp = self.tpp
        self.size -= tpp.wire_length()
        self.tpp = None
        self.tpp_standalone = False
        return tpp

    # ------------------------------------------------------------ convenience
    def record_hop(self, node_name: str) -> None:
        """Append a node to the packet's observed path (simulation bookkeeping)."""
        self.path.append(node_name)

    def transmission_time(self, rate_bps: float) -> float:
        """Serialisation delay of this packet on a link of ``rate_bps``.

        The port transmit chain spells this expression out inline.
        """
        return self.size * 8.0 / rate_bps

    def copy_headers(self) -> "Packet":
        """A shallow header copy (new packet id, no TPP, no path history)."""
        return Packet(src=self.src, dst=self.dst, size=self.size,
                      protocol=self.protocol, sport=self.sport, dport=self.dport,
                      vlan=self.vlan, flow_id=self.flow_id, payload=self.payload,
                      created_at=self.created_at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tpp = " +TPP" if self.is_tpp else ""
        return (f"<Packet #{self.packet_id} {self.src}->{self.dst} {self.protocol}"
                f" {self.size}B flow={self.flow_id}{tpp}>")


def udp_packet(src: str, dst: str, payload_bytes: int, sport: int = 10000,
               dport: int = 20000, flow_id: int = 0, vlan: int = 0,
               created_at: float = 0.0) -> Packet:
    """Build a UDP data packet; ``size`` covers Ethernet+IP+UDP headers."""
    size = ETHERNET_HEADER_BYTES + IPV4_HEADER_BYTES + UDP_HEADER_BYTES + payload_bytes
    return Packet(src=src, dst=dst, size=size, protocol="udp", sport=sport,
                  dport=dport, flow_id=flow_id, vlan=vlan, created_at=created_at)


def tcp_packet(src: str, dst: str, payload_bytes: int, sport: int = 10000,
               dport: int = 80, flow_id: int = 0, created_at: float = 0.0) -> Packet:
    """Build a TCP data packet; ``size`` covers Ethernet+IP+TCP headers."""
    size = ETHERNET_HEADER_BYTES + IPV4_HEADER_BYTES + TCP_HEADER_BYTES + payload_bytes
    return Packet(src=src, dst=dst, size=size, protocol="tcp", sport=sport,
                  dport=dport, flow_id=flow_id, created_at=created_at)


def tpp_probe_packet(src: str, dst: str, tpp: Any, dport: int = TPP_UDP_PORT,
                     flow_id: int = 0, vlan: int = 0, created_at: float = 0.0) -> Packet:
    """Build a standalone TPP probe packet (UDP destined to port 0x6666)."""
    base = ETHERNET_HEADER_BYTES + IPV4_HEADER_BYTES + UDP_HEADER_BYTES
    pkt = Packet(src=src, dst=dst, size=base, protocol="udp", sport=TPP_UDP_PORT,
                 dport=dport, flow_id=flow_id, vlan=vlan, created_at=created_at)
    pkt.attach_tpp(tpp, standalone=True)
    return pkt
