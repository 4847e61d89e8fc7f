"""The TPP parse graph (§3.4, Figure 7a).

A TPP can reach a switch in two ways:

* **standalone**: an Ethernet frame whose ethertype is ``0x6666`` — the TPP
  is the payload (optionally encapsulating another frame), or
* **transparent / piggy-backed**: a normal UDP packet whose destination (or
  source) port is ``0x6666`` — the TPP rides inside the UDP payload in front
  of the application data.

The simulator's :class:`~repro.net.packet.Packet` carries the attached TPP as
an object rather than raw bytes, so "parsing" here is the classification step
of the parse graph plus (for completeness and for the wire-format tests) the
byte-level decode of encoded TPPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.packet_format import TPP
from repro.net.packet import Packet, TPP_ETHERTYPE, TPP_UDP_PORT


@dataclass(frozen=True)
class ParseResult:
    """What the ingress parser concluded about a packet."""

    is_tpp: bool
    mode: str               # "standalone", "piggybacked", or "none"
    tpp: Optional[TPP] = None


class TPPParser:
    """Classifies packets according to the TPP parse graph."""

    def __init__(self) -> None:
        self.packets_parsed = 0
        self.tpps_identified = 0

    def classify(self, packet: Packet) -> bool:
        """Fast-path classification: is there a TPP to execute on this packet?

        Maintains the same counters and reaches the same verdict as
        :meth:`parse` (every packet carrying a TPP object parses as a TPP in
        one of the graph's modes) without allocating a :class:`ParseResult`;
        the switch hot path only needs the boolean.
        """
        self.packets_parsed += 1
        if packet.tpp is None:
            return False
        self.tpps_identified += 1
        return True

    def parse(self, packet: Packet) -> ParseResult:
        """Walk the parse graph for one packet."""
        self.packets_parsed += 1
        if packet.tpp is None:
            return ParseResult(is_tpp=False, mode="none")
        # ether.type == 0x6666 -> TPP (optionally encapsulating a payload);
        # otherwise the TPP rides in front of a UDP payload (transparent mode).
        self.tpps_identified += 1
        mode = "standalone" if packet.tpp_standalone else "piggybacked"
        return ParseResult(is_tpp=True, mode=mode, tpp=packet.tpp)


def parse_graph_edges() -> list[tuple[str, str, str]]:
    """The parse graph of Figure 7a as (from-node, to-node, condition) edges.

    Exposed for documentation, the quickstart example, and tests that check
    both TPP entry points are represented.
    """
    return [
        ("Ethernet", "TPP", f"ether.type == {TPP_ETHERTYPE:#06x}"),
        ("Ethernet", "IPv4", "ether.type == 0x0800"),
        ("Ethernet", "ARP", "ether.type == 0x0806"),
        ("TPP", "IPv4", "tpp.proto == 0x0800"),
        ("IPv4", "UDP", "ip.p == 17"),
        ("IPv4", "TCP", "ip.p == 6"),
        ("UDP", "TPP", f"udp.dstport == {TPP_UDP_PORT:#06x}"),
        ("UDP", "non-TPP", f"udp.dstport != {TPP_UDP_PORT:#06x}"),
    ]
