"""The unified, memory-mapped address space TPPs use to name switch state.

The paper (§3.3.1, appendix Tables 6–8) exposes switch statistics through a
single virtual address space with per-switch, per-stage, per-port (link),
per-queue and per-packet namespaces.  Mnemonics such as
``[Queue:QueueOccupancy]`` or ``[Link:RX-Utilization]`` are resolved by the
compiler into 16-bit virtual addresses that every TPP-capable switch
understands.

Address map (16-bit virtual addresses)
---------------------------------------

========================  =====================================================
``0x0000 – 0x00FF``       ``Switch:`` — global, per-ASIC values
``0x0100 – 0x0FFF``       ``Stage$i:`` — per match-action stage / flow table
``0x1000 – 0x6FFF``       ``Link$i:`` — per port; 64-word block per port
``0x7000 – 0x9FFF``       ``Queue$i$j:`` — per (port, queue); 32-word blocks
``0xA000 – 0xA0FF``       ``PacketMetadata:`` — resolved per packet
``0xB000 – 0xB1FF``       packet-relative ``Link:`` / ``Queue:`` aliases that
                          the switch resolves against the packet's own
                          input/output port and output queue at execution time
========================  =====================================================

Two conventions worth calling out:

* Index-less ``Link:`` mnemonics are *packet relative*: ``TX-*``, queue and
  app-specific fields resolve to the packet's **output** port, while ``RX-*``
  fields resolve to the packet's **input** port — matching how the paper's
  RCP* and CONGA* TPPs sample the links a packet actually traverses.
* Utilisations are stored as integers in basis points (1/100 of a percent,
  0–10000) so they fit comfortably in a 16-bit packet-memory word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .exceptions import AddressError

# --------------------------------------------------------------------------
# Region bases and sizes
# --------------------------------------------------------------------------
SWITCH_BASE = 0x0000
SWITCH_REGION_END = 0x00FF

STAGE_BASE = 0x0100
STAGE_BLOCK_WORDS = 0x40
STAGE_REGION_END = 0x0FFF
MAX_STAGES = (STAGE_REGION_END + 1 - STAGE_BASE) // STAGE_BLOCK_WORDS  # 60

LINK_BASE = 0x1000
LINK_BLOCK_WORDS = 0x40
LINK_REGION_END = 0x6FFF
MAX_LINKS = (LINK_REGION_END + 1 - LINK_BASE) // LINK_BLOCK_WORDS  # 384

QUEUE_BASE = 0x7000
QUEUE_BLOCK_WORDS = 0x20
QUEUES_PER_PORT = 8
QUEUE_REGION_END = 0x9FFF

PACKET_METADATA_BASE = 0xA000
PACKET_METADATA_END = 0xA0FF

DYNAMIC_LINK_BASE = 0xB000   # packet-relative Link: alias
DYNAMIC_QUEUE_BASE = 0xB100  # packet-relative Queue: alias
DYNAMIC_END = 0xB1FF

ADDRESS_MAX = 0xFFFF

# --------------------------------------------------------------------------
# Field offsets inside each block
# --------------------------------------------------------------------------
SWITCH_FIELDS = {
    "SwitchID": 0,
    "ID": 0,                    # alias used by some examples in the paper
    "VersionNumber": 1,
    "Clock": 2,
    "ClockFrequency": 3,
    "VendorID": 4,
    "NumPorts": 5,
    "Uptime": 6,
}

STAGE_FIELDS = {
    "VersionNumber": 0,
    "ReferenceCount": 1,
    "LookupPackets": 2,
    "LookupBytes": 3,
    "MatchPackets": 4,
    "MatchBytes": 5,
    "Reg0": 8, "Reg1": 9, "Reg2": 10, "Reg3": 11,
    "Reg4": 12, "Reg5": 13, "Reg6": 14, "Reg7": 15,
}

LINK_FIELDS = {
    "ID": 0,
    "QueueSizeBytes": 1,
    "QueueSizePackets": 2,
    "QueueSize": 1,             # alias: RCP's q(t) is measured in bytes
    "TX-Bytes": 3,
    "TX-Packets": 4,
    "TX-Utilization": 5,
    "RX-Bytes": 6,
    "RX-Packets": 7,
    "RX-Utilization": 8,
    "Drop-Bytes": 9,
    "Drop-Packets": 10,
    "PortStatus": 11,
    "TX-Rate": 12,
    "RX-Rate": 13,
    "Capacity": 14,
    "AppSpecific_0": 16, "AppSpecific_1": 17, "AppSpecific_2": 18,
    "AppSpecific_3": 19, "AppSpecific_4": 20, "AppSpecific_5": 21,
    "AppSpecific_6": 22, "AppSpecific_7": 23,
}

QUEUE_FIELDS = {
    "QueueOccupancy": 0,        # packets currently queued (Figure 1's unit)
    "QueueOccupancyBytes": 1,
    "Drop-Packets": 2,
    "Drop-Bytes": 3,
    "TX-Packets": 4,
    "TX-Bytes": 5,
}

PACKET_METADATA_FIELDS = {
    "InputPort": 0,
    "OutputPort": 1,
    "OutputQueue": 2,
    "MatchedEntryID": 3,
    "MatchedEntryVersion": 4,
    "MatchedStage": 5,
    "HopNumber": 6,
    "PathID": 7,
    "PacketLength": 8,
    "ArrivalTimestamp": 9,
}

# RX-flavoured link fields resolve against the packet's *input* port.
_RX_LINK_OFFSETS = frozenset(
    LINK_FIELDS[name] for name in ("RX-Bytes", "RX-Packets", "RX-Utilization", "RX-Rate"))

_MNEMONIC_RE = re.compile(
    r"^\s*\[?\s*(?P<ns>[A-Za-z]+)(?P<idx>(?:\$\d+)*)\s*:\s*(?P<field>[A-Za-z0-9_\-]+)\s*\]?\s*$")


@dataclass(frozen=True)
class DecodedAddress:
    """The switch-side interpretation of a 16-bit virtual address."""

    region: str            # "switch" | "stage" | "link" | "queue" | "packet_metadata"
                            # | "dynamic_link" | "dynamic_queue"
    field_offset: int
    index: Optional[int] = None          # stage index or port index
    queue_index: Optional[int] = None    # queue index within a port

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        extra = "" if self.index is None else f"[{self.index}]"
        if self.queue_index is not None:
            extra += f"[{self.queue_index}]"
        return f"{self.region}{extra}+{self.field_offset}"


# --------------------------------------------------------------------------
# Mnemonic -> address resolution (compile time)
# --------------------------------------------------------------------------
def stage_address(stage: int, field: str) -> int:
    """Address of ``field`` in the per-stage block for ``stage``."""
    if not 0 <= stage < MAX_STAGES:
        raise AddressError(f"stage index {stage} out of range [0, {MAX_STAGES})")
    offset = _field_offset(STAGE_FIELDS, field, "Stage")
    return STAGE_BASE + stage * STAGE_BLOCK_WORDS + offset


def link_address(port: int, field: str) -> int:
    """Address of ``field`` in the per-port block for port ``port``."""
    if not 0 <= port < MAX_LINKS:
        raise AddressError(f"port index {port} out of range [0, {MAX_LINKS})")
    offset = _field_offset(LINK_FIELDS, field, "Link")
    return LINK_BASE + port * LINK_BLOCK_WORDS + offset


def queue_address(port: int, queue: int, field: str) -> int:
    """Address of ``field`` for queue ``queue`` on port ``port``."""
    if not 0 <= queue < QUEUES_PER_PORT:
        raise AddressError(f"queue index {queue} out of range [0, {QUEUES_PER_PORT})")
    if not 0 <= port < MAX_LINKS:
        raise AddressError(f"port index {port} out of range [0, {MAX_LINKS})")
    offset = _field_offset(QUEUE_FIELDS, field, "Queue")
    addr = QUEUE_BASE + (port * QUEUES_PER_PORT + queue) * QUEUE_BLOCK_WORDS + offset
    if addr > QUEUE_REGION_END:
        raise AddressError(f"queue block for port {port} exceeds the queue region")
    return addr


def _field_offset(table: dict, field: str, namespace: str) -> int:
    try:
        return table[field]
    except KeyError:
        raise AddressError(f"unknown field '{field}' in namespace '{namespace}'; "
                           f"known fields: {sorted(table)}") from None


def resolve(mnemonic: str) -> int:
    """Resolve a mnemonic like ``[Link:RX-Utilization]`` to a virtual address.

    Index-less ``Link:``/``Queue:`` mnemonics map to the packet-relative
    dynamic region; ``Link$3:``/``Queue$3$1:``/``Stage$2:`` forms map to the
    concrete blocks.
    """
    match = _MNEMONIC_RE.match(mnemonic)
    if match is None:
        raise AddressError(f"malformed mnemonic: {mnemonic!r}")
    namespace = match.group("ns")
    indices = [int(tok) for tok in match.group("idx").split("$") if tok]
    field = match.group("field")

    ns = namespace.lower()
    if ns == "switch":
        return SWITCH_BASE + _field_offset(SWITCH_FIELDS, field, "Switch")
    if ns == "stage":
        if len(indices) != 1:
            raise AddressError(f"Stage mnemonic needs one index, e.g. [Stage$1:Reg0]; got {mnemonic!r}")
        return stage_address(indices[0], field)
    if ns == "link":
        if not indices:
            return DYNAMIC_LINK_BASE + _field_offset(LINK_FIELDS, field, "Link")
        if len(indices) == 1:
            return link_address(indices[0], field)
        raise AddressError(f"Link mnemonic takes at most one index; got {mnemonic!r}")
    if ns == "queue":
        if not indices:
            return DYNAMIC_QUEUE_BASE + _field_offset(QUEUE_FIELDS, field, "Queue")
        if len(indices) == 2:
            return queue_address(indices[0], indices[1], field)
        raise AddressError(f"Queue mnemonic takes zero or two indices; got {mnemonic!r}")
    if ns == "packetmetadata":
        return PACKET_METADATA_BASE + _field_offset(PACKET_METADATA_FIELDS, field, "PacketMetadata")
    raise AddressError(f"unknown namespace '{namespace}' in {mnemonic!r}")


# --------------------------------------------------------------------------
# Address -> region decoding (execution time, switch side)
# --------------------------------------------------------------------------
@lru_cache(maxsize=None)
def decode(address: int) -> DecodedAddress:
    """Classify a virtual address into its region, block index and field offset.

    Pure over the 16-bit address space, so results are memoized (the TCPU
    decodes one address per memory-touching instruction per packet per hop;
    the cache is bounded by the 65536 possible addresses).
    """
    if not 0 <= address <= ADDRESS_MAX:
        raise AddressError(f"address {address:#x} outside the 16-bit address space")
    if address <= SWITCH_REGION_END:
        return DecodedAddress("switch", address - SWITCH_BASE)
    if STAGE_BASE <= address <= STAGE_REGION_END:
        rel = address - STAGE_BASE
        return DecodedAddress("stage", rel % STAGE_BLOCK_WORDS, index=rel // STAGE_BLOCK_WORDS)
    if LINK_BASE <= address <= LINK_REGION_END:
        rel = address - LINK_BASE
        return DecodedAddress("link", rel % LINK_BLOCK_WORDS, index=rel // LINK_BLOCK_WORDS)
    if QUEUE_BASE <= address <= QUEUE_REGION_END:
        rel = address - QUEUE_BASE
        block = rel // QUEUE_BLOCK_WORDS
        return DecodedAddress("queue", rel % QUEUE_BLOCK_WORDS,
                              index=block // QUEUES_PER_PORT,
                              queue_index=block % QUEUES_PER_PORT)
    if PACKET_METADATA_BASE <= address <= PACKET_METADATA_END:
        return DecodedAddress("packet_metadata", address - PACKET_METADATA_BASE)
    if DYNAMIC_LINK_BASE <= address < DYNAMIC_QUEUE_BASE:
        return DecodedAddress("dynamic_link", address - DYNAMIC_LINK_BASE)
    if DYNAMIC_QUEUE_BASE <= address <= DYNAMIC_END:
        return DecodedAddress("dynamic_queue", address - DYNAMIC_QUEUE_BASE)
    raise AddressError(f"address {address:#x} does not belong to any mapped region")


def is_dynamic_rx_field(field_offset: int) -> bool:
    """True when a dynamic-link field offset is an RX statistic (input-port relative)."""
    return field_offset in _RX_LINK_OFFSETS


def describe(address: int) -> str:
    """Human-readable rendering of an address (best effort), for tooling/tests."""
    decoded = decode(address)
    tables = {
        "switch": SWITCH_FIELDS, "stage": STAGE_FIELDS, "link": LINK_FIELDS,
        "queue": QUEUE_FIELDS, "packet_metadata": PACKET_METADATA_FIELDS,
        "dynamic_link": LINK_FIELDS, "dynamic_queue": QUEUE_FIELDS,
    }
    table = tables[decoded.region]
    names = [name for name, off in table.items() if off == decoded.field_offset]
    field = names[0] if names else f"+{decoded.field_offset}"
    if decoded.region == "switch":
        return f"[Switch:{field}]"
    if decoded.region == "stage":
        return f"[Stage${decoded.index}:{field}]"
    if decoded.region == "link":
        return f"[Link${decoded.index}:{field}]"
    if decoded.region == "queue":
        return f"[Queue${decoded.index}${decoded.queue_index}:{field}]"
    if decoded.region == "packet_metadata":
        return f"[PacketMetadata:{field}]"
    if decoded.region == "dynamic_link":
        return f"[Link:{field}]"
    return f"[Queue:{field}]"
