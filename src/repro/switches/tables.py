"""Match-action flow tables and group tables.

The forwarding substrate the paper assumes is the "multiple match table"
model [Bosshart et al.]: a packet flows through a pipeline of match-action
stages; each stage holds a flow table whose entries match on header fields
and emit an action (forward out of a port, send to a group, drop).

Only the pieces the reproduced experiments exercise are modelled:

* exact-match tables keyed on any of the packet's fields (we use the
  destination host, which stands in for an L3 LPM/L2 MAC lookup), looked up
  through a hash index rather than a scan,
* per-table and per-entry statistics and version numbers (NetSight's packet
  histories read ``[PacketMetadata:MatchedEntryID]`` and the table version),
* group tables for multipath: a group maps to several egress ports, and the
  selection policy can be an ECMP-style hash or a header tag (VLAN / UDP
  destination port), which is how §2.4 lets end-hosts pick paths.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import zlib
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional

from repro.net.packet import Packet

from .counters import StatsBlock

_entry_ids = itertools.count(1)


@dataclass
class FlowEntry:
    """One entry in a match-action table."""

    match: dict                      # field name -> required value ("*" entries omit the field)
    action: str                      # "forward" | "group" | "drop"
    output_port: Optional[int] = None
    group_id: Optional[int] = None
    priority: int = 0
    entry_id: int = field(default_factory=lambda: next(_entry_ids))
    version: int = 1
    installed_at: float = 0.0
    stats: StatsBlock = field(default_factory=StatsBlock)


#: The names a flow entry may match on: the packet's own fields.
_PACKET_FIELDS = frozenset(Packet.__dataclass_fields__)


def _no_fields(packet: Packet) -> tuple:
    """The index key of a ``match={}`` wildcard: every packet has it."""
    return ()


class FlowTable:
    """A priority-ordered exact-match table with lookup/match statistics.

    ``entries`` is in table order: priority descending, oldest install first
    among equals.  Lookups go through an exact-match index instead of a
    scan: the entries are grouped by the names of the fields they match on
    (``match={}`` wildcards form the group ``()``), and each group is a dict
    from those fields' values to its entries in table order.  A lookup
    probes one dict per group and takes the best head by (priority, install
    order) — the entry a scan of ``entries`` would meet first.  An entry's
    match and priority are read when it is installed.
    """

    def __init__(self, name: str = "l3") -> None:
        self.name = name
        self.entries: list[FlowEntry] = []
        self.version = 1
        self.lookup_stats = StatsBlock()
        self.match_stats = StatsBlock()
        # One group per set of matched field names: (names, getter of those
        # fields off a packet, {values: [(-priority, install seq, entry)]}).
        self._groups: list[tuple[tuple, Callable, dict]] = []
        self._installs = 0

    def install(self, entry: FlowEntry) -> FlowEntry:
        """Add an entry and bump the table version (monotonically increasing)."""
        self._insert(entry)
        self.version += 1
        entry.version = self.version
        return entry

    def _insert(self, entry: FlowEntry) -> None:
        names = tuple(sorted(entry.match))
        for name in names:
            if name not in _PACKET_FIELDS:
                raise ValueError(f"flow entry matches on {name!r}, not a packet field")
            try:
                hash(entry.match[name])
            except TypeError:
                raise ValueError(f"flow entry's {name!r} match value "
                                 f"{entry.match[name]!r} is unhashable") from None
        buckets = next((b for n, _, b in self._groups if n == names), None)
        if buckets is None:
            buckets = {}
            self._groups.append((names, attrgetter(*names) if names else _no_fields,
                                 buckets))
        values = tuple(entry.match[name] for name in names)
        key = values[0] if len(names) == 1 else values       # as the getter reads it
        bisect.insort(buckets.setdefault(key, []), (-entry.priority, self._installs, entry))
        self._installs += 1
        bisect.insort(self.entries, entry, key=lambda e: -e.priority)

    def remove(self, entry_id: int) -> bool:
        kept = [e for e in self.entries if e.entry_id != entry_id]
        if len(kept) == len(self.entries):
            return False
        self.entries, self._groups = [], []
        for entry in kept:               # re-indexed in table order
            self._insert(entry)
        self.version += 1
        return True

    def lookup(self, packet: Packet) -> Optional[FlowEntry]:
        """Find the highest-priority matching entry, updating statistics."""
        # Every packet on the forwarding path comes through here, so the
        # three StatsBlock.count calls are inlined.
        size = packet.size
        stats = self.lookup_stats
        stats.packets += 1
        stats.bytes += size
        best = None
        for _, getter, buckets in self._groups:
            try:
                bucket = buckets.get(getter(packet))
            except TypeError:            # an unhashable packet value equals no key
                continue
            if bucket is not None and (best is None or bucket[0] < best):
                best = bucket[0]
        if best is None:
            return None
        entry = best[2]
        stats = entry.stats
        stats.packets += 1
        stats.bytes += size
        stats = self.match_stats
        stats.packets += 1
        stats.bytes += size
        return entry

    @property
    def reference_count(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@functools.lru_cache(maxsize=4096)
def _flow_hash(src: str, dst: str, protocol: str, sport: int, dport: int,
               salt: int) -> int:
    """Deterministic 5-tuple hash used for ECMP selection.

    Cached on its own inputs: every packet of a flow (and every group that
    hashes it with one salt) pays the crc32 once while the flow is hot.
    """
    key = f"{src}|{dst}|{protocol}|{sport}|{dport}|{salt}"
    return zlib.crc32(key.encode())


# Selection policies a group can use to pick among its ports.
SelectionPolicy = Callable[[Packet, list[int], int], int]


def select_by_hash(packet: Packet, ports: list[int], salt: int) -> int:
    """ECMP: hash the flow identity; all packets of a flow take one path."""
    return ports[_flow_hash(packet.src, packet.dst, packet.protocol, packet.sport,
                            packet.dport, salt) % len(ports)]


def select_by_vlan(packet: Packet, ports: list[int], salt: int) -> int:
    """Path chosen by the VLAN tag — the §2.4 mechanism end-hosts control."""
    return ports[packet.vlan % len(ports)]


def select_by_dport(packet: Packet, ports: list[int], salt: int) -> int:
    """Path chosen by the destination UDP port (the CONGA* prototype's knob)."""
    return ports[packet.dport % len(ports)]


SELECTION_POLICIES: dict[str, SelectionPolicy] = {
    "hash": select_by_hash,
    "vlan": select_by_vlan,
    "dport": select_by_dport,
}


@dataclass
class Group:
    """A multipath group: a set of candidate egress ports plus a selector."""

    group_id: int
    ports: list[int]
    policy: str = "hash"
    salt: int = 0

    def select(self, packet: Packet) -> int:
        if not self.ports:
            raise ValueError(f"group {self.group_id} has no ports")
        try:
            selector = SELECTION_POLICIES[self.policy]
        except KeyError:
            raise ValueError(f"unknown group selection policy {self.policy!r}") from None
        return selector(packet, self.ports, self.salt)


class GroupTable:
    """The switch's group table (§2.4 / OpenFlow §5.6.1).

    A selection reads the group's live state, so a caller may mutate a
    group it was handed (ports, policy, salt) in place; the only cache is
    :func:`_flow_hash`'s, on the hash's own inputs.
    """

    def __init__(self) -> None:
        self.groups: dict[int, Group] = {}

    def install(self, group: Group) -> None:
        if not group.ports:
            raise ValueError(f"group {group.group_id} has no ports")
        if group.policy not in SELECTION_POLICIES:
            raise ValueError(f"group {group.group_id}: unknown selection policy "
                             f"{group.policy!r}")
        self.groups[group.group_id] = group

    def select(self, group_id: int, packet: Packet) -> int:
        group = self.groups.get(group_id)
        if group is None:
            raise KeyError(f"group {group_id} is not installed")
        return group.select(packet)

    def __contains__(self, group_id: int) -> bool:
        return group_id in self.groups
