"""Switch memory: resolving TPP virtual addresses against live switch state.

:class:`SwitchMemory` is the glue between the TCPU (which only knows 16-bit
virtual addresses and a per-packet context) and the concrete switch model
(ports, queues, flow tables, registers).  It implements the
:class:`repro.core.tcpu.MemoryInterface` protocol.

Read-only vs read-write follows Table 2: statistics and metadata are
readable; the per-link application-specific registers, per-stage registers,
and a packet's output port / queue / path tag are writable (the latter is how
"fast network updates" and output-port rewriting work).

The memory map is **declared once, resolved once**.  Each region below is a
table with one row per field, keyed by the field's offset in
:mod:`repro.core.addressing`; a field without a row in a ``*_WRITERS`` table
(or, for ``Link:``, in :data:`LINK_REGISTERS`) is read-only.  On the first
access to an address, :class:`SwitchMemory` decodes it, picks the row and
closes it over the state it names — the way the paper's execution units are
wired to their statistics at tape-out (§3.5) — so every later ``read`` /
``write`` of that address is a dict lookup plus a call.  Rows read *live* state: a closure may capture the switch, its ``ports``
and ``stages`` lists (which grow in place) and this memory's register dict,
never a port or a count, so ports added, routes installed and registers
written after an address was resolved are seen by the next access.  A
``Link:`` / ``Queue:`` row is called with the port object, looked up once
per access after the range check.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Optional

from repro.core import addressing
from repro.core.tcpu import METADATA_READERS, PacketContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.port import Port

    from .switch import TPPSwitch

Reader = Callable[[PacketContext], Optional[int]]
Writer = Callable[[int, PacketContext], bool]

_S, _T, _L, _Q, _M = (addressing.SWITCH_FIELDS, addressing.STAGE_FIELDS,
                      addressing.LINK_FIELDS, addressing.QUEUE_FIELDS,
                      addressing.PACKET_METADATA_FIELDS)


def _stats(path: str):
    """A ``Link:`` row reading the port's periodically refreshed statistics."""
    get = attrgetter(path)
    return lambda port: get(port.node.port_stats[port.index])


def _port_status(port: "Port") -> int:
    return 1 if (port.up and port.link is not None and port.link.up) else 0


def _capacity_mbps(port: "Port") -> int:
    link = port.link
    return int(link.rate_bps // 1_000_000) if link else 0


def _set_output_port(memory: "SwitchMemory", value: int, context: PacketContext) -> bool:
    if not 0 <= value < len(memory.switch.ports):
        return False
    context.output_port = value
    return True


def _set_context(name: str):
    def write(memory: "SwitchMemory", value: int, context: PacketContext) -> bool:
        setattr(context, name, value)
        return True
    return write


#: ``Switch:`` — field offset -> ``row(switch)``.
SWITCH_READERS = {
    _S["SwitchID"]: attrgetter("switch_id"),
    _S["VersionNumber"]: attrgetter("forwarding_version"),
    _S["Clock"]: lambda switch: int(switch.sim.now * switch.clock_hz) & 0xFFFFFFFF,
    _S["ClockFrequency"]: lambda switch: int(switch.clock_hz),
    _S["VendorID"]: attrgetter("vendor_id"),
    _S["NumPorts"]: lambda switch: len(switch.ports),
    _S["Uptime"]: lambda switch: int(switch.sim.now * 1000),
}

#: ``Stage$i:`` — field offset -> ``row(stage)`` / ``row(stage, value)``.
STAGE_READERS = {
    _T["VersionNumber"]: attrgetter("table.version"),
    _T["ReferenceCount"]: attrgetter("table.reference_count"),
    _T["LookupPackets"]: attrgetter("table.lookup_stats.packets"),
    _T["LookupBytes"]: attrgetter("table.lookup_stats.bytes"),
    _T["MatchPackets"]: attrgetter("table.match_stats.packets"),
    _T["MatchBytes"]: attrgetter("table.match_stats.bytes"),
    **{_T[f"Reg{r}"]: (lambda stage, r=r: stage.read_register(r)) for r in range(8)},
}
STAGE_WRITERS = {
    _T[f"Reg{r}"]: (lambda stage, value, r=r: stage.write_register(r, value))
    for r in range(8)
}

#: ``Link$i:`` and packet-relative ``Link:`` — field offset -> ``row(port)``
#: (the port holds its egress queue's state too; ``port.node`` is the
#: switch); the caller range-checks the index and looks the port up.
LINK_READERS = {
    _L["ID"]: lambda port: port.node.link_id(port.index),
    _L["QueueSizeBytes"]: attrgetter("occupancy_bytes"),
    _L["QueueSizePackets"]: attrgetter("occupancy_packets"),
    _L["TX-Bytes"]: attrgetter("tx_bytes"),
    _L["TX-Packets"]: attrgetter("tx_packets"),
    _L["TX-Utilization"]: _stats("tx_utilization_bp"),
    _L["RX-Bytes"]: attrgetter("rx_bytes"),
    _L["RX-Packets"]: attrgetter("rx_packets"),
    _L["RX-Utilization"]: _stats("rx_utilization_bp"),
    _L["Drop-Bytes"]: attrgetter("bytes_dropped_total"),
    _L["Drop-Packets"]: attrgetter("packets_dropped_total"),
    _L["PortStatus"]: _port_status,
    _L["TX-Rate"]: lambda port: int(port.node.port_stats[port.index].transmit.byte_rate),
    _L["RX-Rate"]: lambda port: int(port.node.port_stats[port.index].receive.byte_rate),
    _L["Capacity"]: _capacity_mbps,
}
#: The writable ``Link:`` fields, the per-port application registers: field
#: offset -> register number.  Their rows take the port like the rest and
#: read and write the memory's register dict under ``(port.index, register)``.
LINK_REGISTERS = {_L[f"AppSpecific_{r}"]: r for r in range(8)}

#: ``Queue$i$j:`` and packet-relative ``Queue:`` — rows as for ``Link:``.  The
#: model keeps one queue per port, so only queue id 0 exists.
QUEUE_READERS = {
    _Q["QueueOccupancy"]: attrgetter("occupancy_packets"),
    _Q["QueueOccupancyBytes"]: attrgetter("occupancy_bytes"),
    _Q["Drop-Packets"]: attrgetter("packets_dropped_total"),
    _Q["Drop-Bytes"]: attrgetter("bytes_dropped_total"),
    _Q["TX-Packets"]: attrgetter("packets_dequeued_total"),
    _Q["TX-Bytes"]: attrgetter("bytes_dequeued_total"),
}

#: ``PacketMetadata:`` — the readers are :data:`repro.core.tcpu.METADATA_READERS`;
#: field offset -> ``row(memory, value, context)`` for the writable three.
METADATA_WRITERS = {
    _M["OutputPort"]: _set_output_port,
    _M["OutputQueue"]: _set_context("output_queue"),
    _M["PathID"]: _set_context("path_id"),
}


def _absent(context: PacketContext) -> None:
    """Reader of every address that names nothing on this switch."""
    return None


def _read_only(value: int, context: PacketContext) -> bool:
    """Writer of every address that is absent or not writable (Table 2)."""
    return False


class SwitchMemory:
    """Memory-mapped view of one switch's state."""

    def __init__(self, switch: "TPPSwitch") -> None:
        self.switch = switch
        # Per-port application-specific registers: (port index, register) -> value.
        self.app_registers: dict[tuple[int, int], int] = {}
        # address -> closure, filled on first access; the 16-bit address
        # space bounds both.
        self._resolved_reads: dict[int, Reader] = {}
        self._resolved_writes: dict[int, Writer] = {}

    def read(self, address: int, context: PacketContext) -> Optional[int]:
        try:
            reader = self._resolved_reads[address]
        except KeyError:
            reader = self._resolve(address)[0]
        return reader(context)

    def write(self, address: int, value: int, context: PacketContext) -> bool:
        try:
            writer = self._resolved_writes[address]
        except KeyError:
            writer = self._resolve(address)[1]
        return writer(value, context)

    def read_resolver(self, address: int) -> Reader:
        """The closure ``read(address, ·)`` calls: ``resolver(context)``.

        The TCPU's bound plans and compiled traces bind one per read
        instruction and so skip even the cache lookup.
        """
        return self._resolved_reads.get(address) or self._resolve(address)[0]

    def write_resolver(self, address: int) -> Writer:
        """The closure ``write(address, ·, ·)`` calls: ``resolver(value, context)``.

        Unmapped and read-only addresses give the writer that refuses
        everything; the TCPU's bound plans bind one per write instruction.
        """
        return self._resolved_writes.get(address) or self._resolve(address)[1]

    # ------------------------------------------------------------ resolution
    def _resolve(self, address: int) -> tuple[Reader, Writer]:
        try:
            decoded = addressing.decode(address)
        except addressing.AddressError:
            # Unmapped, or outside the address space: not worth an entry, and
            # caching arbitrary integers would unbound the cache.
            return _absent, _read_only
        pair = self._bind(decoded)
        self._resolved_reads[address], self._resolved_writes[address] = pair
        return pair

    def _bind(self, decoded: addressing.DecodedAddress) -> tuple[Reader, Writer]:
        """Close the field's table rows over the live state they name."""
        region, offset, index = decoded.region, decoded.field_offset, decoded.index
        switch = self.switch
        if region == "switch":
            get = SWITCH_READERS.get(offset)
            return (lambda context: get(switch)) if get else _absent, _read_only
        if region == "packet_metadata":
            put = METADATA_WRITERS.get(offset)
            return (METADATA_READERS.get(offset, _absent),
                    (lambda value, context: put(self, value, context)) if put else _read_only)
        if region == "stage":
            get, put = STAGE_READERS.get(offset), STAGE_WRITERS.get(offset)
            stages = switch.pipeline.stages
            return ((lambda context: get(stages[index]) if index < len(stages) else None)
                    if get else _absent,
                    (lambda value, context:
                     put(stages[index], value) if index < len(stages) else False)
                    if put else _read_only)

        # Per-port regions: the port is named by the address, or — for the
        # index-less aliases — taken from the packet each time (RX
        # statistics describe the link the packet arrived on).
        ports = switch.ports
        links = region in ("link", "dynamic_link")
        register = LINK_REGISTERS.get(offset) if links else None
        if register is not None:
            # The writable per-port fields: the register dict, under
            # (port index, register).
            registers = self.app_registers

            def get(port):
                return registers.get((port.index, register), 0)

            def put(port, value):
                registers[port.index, register] = value
                return True
        else:
            get = (LINK_READERS.get(offset) if links
                   else None if decoded.queue_index else QUEUE_READERS.get(offset))
            put = None
        if get is None:
            return _absent, _read_only
        if index is not None:
            def reader(context):
                return get(ports[index]) if index < len(ports) else None

            def writer(value, context):
                return put(ports[index], value) if index < len(ports) else False
        else:
            port_of = attrgetter(
                "input_port" if region == "dynamic_link"
                and addressing.is_dynamic_rx_field(offset) else "output_port")

            if region == "dynamic_queue":
                def reader(context):
                    port = port_of(context)
                    if (port is None or not 0 <= port < len(ports)
                            or context.output_queue not in (0, None)):
                        return None
                    return get(ports[port])
            else:
                def reader(context):
                    port = port_of(context)
                    if port is None or not 0 <= port < len(ports):
                        return None
                    return get(ports[port])

            def writer(value, context):
                port = port_of(context)
                if port is None or not 0 <= port < len(ports):
                    return False
                return put(ports[port], value)
        return reader, writer if put else _read_only
