"""iptables-style packet filters used by the dataplane shim (§4.1).

A :class:`PacketFilter` describes which outgoing packets an application's TPP
should be attached to, with what sampling frequency, and at what priority.
The semantics follow the paper's ``add_tpp(filter, tpp_bytes,
sample_frequency, priority)`` API: a sampling frequency of ``N`` stamps a
packet with probability ``1/N`` (``N == 1`` stamps every packet).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.net.packet import Packet


@dataclass
class PacketFilter:
    """Match criteria for selecting packets to instrument.

    Every criterion left as ``None`` matches anything; ranges are inclusive.
    """

    protocol: Optional[str] = None
    src: Optional[str] = None
    dst: Optional[str] = None
    dport: Optional[int] = None
    dport_range: Optional[tuple[int, int]] = None
    sport: Optional[int] = None
    vlan: Optional[int] = None
    flow_id: Optional[int] = None

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
    deterministic_sampling: bool = True
    packets_matched: int = 0
    packets_stamped: int = 0
    _sample_counter: int = field(default=0, repr=False)
    _rng: random.Random = field(default_factory=lambda: random.Random(0), repr=False)

    def __post_init__(self) -> None:
        check_sample_frequency(self.sample_frequency)

    def should_stamp(self, packet: Packet) -> bool:
        """Decide whether this matching packet gets the TPP."""
        self.packets_matched += 1
        if self.sample_frequency == 1:
            self.packets_stamped += 1
            return True
        if self.deterministic_sampling:
            self._sample_counter += 1
            if self._sample_counter >= self.sample_frequency:
                self._sample_counter = 0
                self.packets_stamped += 1
                return True
            return False
        if self._rng.random() < 1.0 / self.sample_frequency:
            self.packets_stamped += 1
            return True
        return False


class FilterTable:
    """Priority-ordered filter rules; the first match wins (§4.2)."""

    def __init__(self) -> None:
        self.entries: list[FilterEntry] = []
        self.lookups = 0
        self.rules_evaluated = 0
        # Same-flow memo: every PacketFilter criterion is a function of
        # Packet.flow_key(), so packets with an identical key always resolve
        # to the same first-matching entry.  Invalidated on any rule change.
        self._memo_key: Optional[tuple] = None
        self._memo_entry: Optional[FilterEntry] = None

    def install(self, entry: FilterEntry) -> None:
        self.entries.append(entry)
        self.entries.sort(key=lambda e: -e.priority)
        self._memo_key = None

    def remove_app(self, app_id: int) -> int:
        """Remove all rules belonging to an application; returns how many."""
        before = len(self.entries)
        self.entries = [e for e in self.entries if e.app_id != app_id]
        self._memo_key = None
        return before - len(self.entries)

    def match(self, packet: Packet) -> Optional[FilterEntry]:
        """First (highest-priority) entry whose filter matches the packet.

        Same-flow runs (bursts) hit a one-entry memo instead of re-walking
        the rule list; ``lookups`` counts every call, ``rules_evaluated``
        counts rules actually examined.
        """
        self.lookups += 1
        key = packet.flow_key()
        if key == self._memo_key:
            return self._memo_entry
        matched = None
        for entry in self.entries:
            self.rules_evaluated += 1
            if entry.filter.matches(packet):
                matched = entry
                break
        self._memo_key = key
        self._memo_entry = matched
        return matched

    def __len__(self) -> int:
        return len(self.entries)
