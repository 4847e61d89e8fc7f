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
is read-only.  On the first access to an address, :class:`SwitchMemory`
decodes it, picks the row and closes it over the state it names — the way the
paper's execution units are wired to their statistics at tape-out (§3.5) —
so every later ``read`` / ``write`` of that address is a dict lookup plus a
call.  Rows read *live* state: a closure may capture the switch, its ``ports``
and ``stages`` lists (which grow in place) and this memory, never a port or
a count, so ports added, routes installed and registers written
after an address was resolved are seen by the next access.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Optional

from repro.core import addressing
from repro.core.tcpu import METADATA_READERS, PacketContext

if TYPE_CHECKING:  # pragma: no cover
    from .switch import TPPSwitch

Reader = Callable[[PacketContext], Optional[int]]
Writer = Callable[[int, PacketContext], bool]

_S, _T, _L, _Q, _M = (addressing.SWITCH_FIELDS, addressing.STAGE_FIELDS,
                      addressing.LINK_FIELDS, addressing.QUEUE_FIELDS,
                      addressing.PACKET_METADATA_FIELDS)


def _port(name: str):
    """A ``Link:`` / ``Queue:`` row reading one attribute of the port (the
    port holds its egress queue's state too)."""
    get = attrgetter(name)
    return lambda memory, index: get(memory.switch.ports[index])


def _stats(path: str):
    """A ``Link:`` row reading the port's periodically refreshed statistics."""
    get = attrgetter(path)
    return lambda memory, index: get(memory.switch.port_stats[index])


def _port_status(memory: "SwitchMemory", index: int) -> int:
    port = memory.switch.ports[index]
    return 1 if (port.up and port.link is not None and port.link.up) else 0


def _capacity_mbps(memory: "SwitchMemory", index: int) -> int:
    link = memory.switch.ports[index].link
    return int(link.rate_bps // 1_000_000) if link else 0


def _set_app_register(register: int):
    def write(memory: "SwitchMemory", index: int, value: int) -> bool:
        memory.app_registers[(index, register)] = value
        return True
    return write


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

#: ``Link$i:`` and packet-relative ``Link:`` — field offset ->
#: ``row(memory, port_index)`` / ``row(memory, port_index, value)``; the port
#: index has been range-checked by the caller.
LINK_READERS = {
    _L["ID"]: lambda memory, index: memory.switch.link_id(index),
    _L["QueueSizeBytes"]: _port("occupancy_bytes"),
    _L["QueueSizePackets"]: _port("occupancy_packets"),
    _L["TX-Bytes"]: _port("tx_bytes"),
    _L["TX-Packets"]: _port("tx_packets"),
    _L["TX-Utilization"]: _stats("tx_utilization_bp"),
    _L["RX-Bytes"]: _port("rx_bytes"),
    _L["RX-Packets"]: _port("rx_packets"),
    _L["RX-Utilization"]: _stats("rx_utilization_bp"),
    _L["Drop-Bytes"]: _port("bytes_dropped_total"),
    _L["Drop-Packets"]: _port("packets_dropped_total"),
    _L["PortStatus"]: _port_status,
    _L["TX-Rate"]: lambda memory, index: int(memory.switch.port_stats[index].transmit.byte_rate),
    _L["RX-Rate"]: lambda memory, index: int(memory.switch.port_stats[index].receive.byte_rate),
    _L["Capacity"]: _capacity_mbps,
    **{_L[f"AppSpecific_{r}"]:
       (lambda memory, index, r=r: memory.app_registers.get((index, r), 0))
       for r in range(8)},
}
LINK_WRITERS = {_L[f"AppSpecific_{r}"]: _set_app_register(r) for r in range(8)}

#: ``Queue$i$j:`` and packet-relative ``Queue:`` — rows as for ``Link:``.  The
#: model keeps one queue per port, so only queue id 0 exists.
QUEUE_READERS = {
    _Q["QueueOccupancy"]: _port("occupancy_packets"),
    _Q["QueueOccupancyBytes"]: _port("occupancy_bytes"),
    _Q["Drop-Packets"]: _port("packets_dropped_total"),
    _Q["Drop-Bytes"]: _port("bytes_dropped_total"),
    _Q["TX-Packets"]: _port("packets_dequeued_total"),
    _Q["TX-Bytes"]: _port("bytes_dequeued_total"),
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
        # index-less aliases — taken from the packet each time.
        if region in ("link", "dynamic_link"):
            get, put = LINK_READERS.get(offset), LINK_WRITERS.get(offset)
        else:
            get = None if decoded.queue_index else QUEUE_READERS.get(offset)
            put = None
        ports = switch.ports
        if index is not None:
            def reader(context):
                return get(self, index) if index < len(ports) else None

            def writer(value, context):
                return put(self, index, value) if index < len(ports) else False
        else:
            # RX statistics describe the link the packet arrived on.
            port_of = attrgetter(
                "input_port" if region == "dynamic_link"
                and addressing.is_dynamic_rx_field(offset) else "output_port")

            if region == "dynamic_queue":
                def reader(context):
                    port = port_of(context)
                    if (port is None or not 0 <= port < len(ports)
                            or context.output_queue not in (0, None)):
                        return None
                    return get(self, port)
            else:
                def reader(context):
                    port = port_of(context)
                    if port is None or not 0 <= port < len(ports):
                        return None
                    return get(self, port)

            def writer(value, context):
                port = port_of(context)
                if port is None or not 0 <= port < len(ports):
                    return False
                return put(self, port, value)
        return reader if get else _absent, writer if put else _read_only
