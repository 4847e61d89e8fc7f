"""iptables-style packet filters used by the dataplane shim (§4.1).

A :class:`PacketFilter` describes which outgoing packets an application's TPP
should be attached to, with what sampling frequency, and at what priority.
The semantics follow the paper's ``add_tpp(filter, tpp_bytes,
sample_frequency, priority)`` API: a sampling frequency of ``N`` stamps
every ``N``-th matching packet (``N == 1`` stamps every packet).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.net.packet import PROTOCOLS, Packet


@dataclass
class PacketFilter:
    """Match criteria for selecting packets to instrument.

    Every criterion left as ``None`` matches anything; ranges are inclusive.
    A criterion no packet could meet (a reversed or malformed port range, a
    protocol the packet model does not have) is rejected at construction.
    """

    protocol: Optional[str] = None
    src: Optional[str] = None
    dst: Optional[str] = None
    dport: Optional[int] = None
    dport_range: Optional[tuple[int, int]] = None
    sport: Optional[int] = None
    vlan: Optional[int] = None
    flow_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.protocol is not None and self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {', '.join(PROTOCOLS)}, "
                             f"got {self.protocol!r}")
        if self.dport_range is not None:
            bounds = self.dport_range
            if not (isinstance(bounds, (tuple, list)) and len(bounds) == 2
                    and all(isinstance(b, int) and not isinstance(b, bool)
                            for b in bounds)
                    and bounds[0] <= bounds[1]):
                raise ValueError(f"dport_range must be two ints (low, high) with "
                                 f"low <= high, got {bounds!r}")

    def matches(self, packet: Packet) -> bool:
        if self.protocol is not None and packet.protocol != self.protocol:
            return False
        if self.src is not None and packet.src != self.src:
            return False
        if self.dst is not None and packet.dst != self.dst:
            return False
        if self.dport is not None and packet.dport != self.dport:
            return False
        if self.dport_range is not None:
            low, high = self.dport_range
            if not low <= packet.dport <= high:
                return False
        if self.sport is not None and packet.sport != self.sport:
            return False
        if self.vlan is not None and packet.vlan != self.vlan:
            return False
        if self.flow_id is not None and packet.flow_id != self.flow_id:
            return False
        return True


def match_all() -> PacketFilter:
    """A filter that matches every packet."""
    return PacketFilter()


def check_sample_frequency(sample_frequency: int) -> None:
    """Reject a sampling rate below one stamp per matching packet."""
    if sample_frequency < 1:
        raise ValueError(f"sample_frequency must be >= 1, "
                         f"got {sample_frequency!r}")


@dataclass
class FilterEntry:
    """One installed (filter, TPP, sampling, priority) rule."""

    filter: PacketFilter
    app_id: int
    tpp_template: object                 # CompiledTPP or TPP; cloned per stamped packet
    sample_frequency: int = 1
    priority: int = 0
    packets_matched: int = 0
    packets_stamped: int = 0
    _sample_counter: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        check_sample_frequency(self.sample_frequency)

    def should_stamp(self, packet: Packet) -> bool:
        """Decide whether this matching packet gets the TPP: every
        ``sample_frequency``-th one does."""
        self.packets_matched += 1
        self._sample_counter += 1
        if self._sample_counter >= self.sample_frequency:
            self._sample_counter = 0
            self.packets_stamped += 1
            return True
        return False


class FilterTable:
    """Priority-ordered filter rules; the first match wins (§4.2)."""

    def __init__(self) -> None:
        self.entries: list[FilterEntry] = []

    def install(self, entry: FilterEntry) -> None:
        self.entries.append(entry)
        self.entries.sort(key=lambda e: -e.priority)

    def remove_app(self, app_id: int) -> int:
        """Remove all rules belonging to an application; returns how many."""
        before = len(self.entries)
        self.entries = [e for e in self.entries if e.app_id != app_id]
        return before - len(self.entries)

    def match(self, packet: Packet) -> Optional[FilterEntry]:
        """First (highest-priority) entry whose filter matches the packet."""
        for entry in self.entries:
            if entry.filter.matches(packet):
                return entry
        return None

    def __len__(self) -> int:
        return len(self.entries)
