"""The switch memory map resolves each address once; what it answers must not change.

``SwitchMemory`` builds one reader and one writer closure per address from
per-region field tables.  These tests hold the closures to an *independent*
reference — the per-access decode-and-dispatch memory the map replaced, kept
here verbatim — over the whole 16-bit address space, and check the things a
cache could get wrong: staleness, unmapped addresses, and growth.  The
flattened packet-memory word accessors are held to their two-step public
references the same way.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.core import addressing
from repro.core.isa import Instruction, Opcode
from repro.core.packet_format import AddressingMode, TPP
from repro.core.tcpu import PacketContext
from repro.net.link import mbps
from repro.net.packet import udp_packet
from repro.net.sim import Simulator
from repro.net.topology import Network
from repro.switches.memory import _read_only
from tcpu_oracle import hop_offset, read_word, write_word


class ReferenceMemory:
    """The pre-table ``SwitchMemory``: decode, region dispatch and one
    ``if offset == fields[...]`` ladder per region, on every access."""

    def __init__(self, switch):
        self.switch = switch
        self.app_registers = {}

    def read(self, address, context):
        try:
            decoded = addressing.decode(address)
        except addressing.AddressError:
            return None
        region, offset = decoded.region, decoded.field_offset
        if region == "switch":
            return self._read_switch(offset)
        if region == "stage":
            return self._read_stage(decoded.index, offset)
        if region == "link":
            return self._read_link(decoded.index, offset)
        if region == "queue":
            return self._read_queue(decoded.index, decoded.queue_index, offset)
        if region == "packet_metadata":
            return self._read_metadata(offset, context)
        if region == "dynamic_link":
            return self._read_link(self._dynamic_port(offset, context), offset)
        if region == "dynamic_queue":
            return self._read_queue(context.output_port, context.output_queue, offset)
        return None

    def write(self, address, value, context):
        try:
            decoded = addressing.decode(address)
        except addressing.AddressError:
            return False
        if decoded.region in ("link", "dynamic_link"):
            port = (decoded.index if decoded.region == "link"
                    else self._dynamic_port(decoded.field_offset, context))
            return self._write_link(port, decoded.field_offset, value)
        if decoded.region == "stage":
            stage = self.switch.pipeline.stage(decoded.index)
            if stage is None:
                return False
            reg = decoded.field_offset - addressing.STAGE_FIELDS["Reg0"]
            return stage.write_register(reg, value) if reg >= 0 else False
        if decoded.region == "packet_metadata":
            return self._write_packet_metadata(decoded.field_offset, value, context)
        return False

    def _dynamic_port(self, field_offset, context):
        rx = {addressing.LINK_FIELDS[name]
              for name in ("RX-Bytes", "RX-Packets", "RX-Utilization", "RX-Rate")}
        return context.input_port if field_offset in rx else context.output_port

    def _read_switch(self, offset):
        switch = self.switch
        fields = addressing.SWITCH_FIELDS
        if offset == fields["SwitchID"]:
            return switch.switch_id
        if offset == fields["VersionNumber"]:
            return switch.forwarding_version
        if offset == fields["Clock"]:
            return int(switch.sim.now * switch.clock_hz) & 0xFFFFFFFF
        if offset == fields["ClockFrequency"]:
            return int(switch.clock_hz)
        if offset == fields["VendorID"]:
            return switch.vendor_id
        if offset == fields["NumPorts"]:
            return len(switch.ports)
        if offset == fields["Uptime"]:
            return int(switch.sim.now * 1000)
        return None

    def _read_stage(self, stage_index, offset):
        stage = self.switch.pipeline.stage(stage_index)
        if stage is None:
            return None
        fields = addressing.STAGE_FIELDS
        table = stage.table
        if offset == fields["VersionNumber"]:
            return table.version
        if offset == fields["ReferenceCount"]:
            return table.reference_count
        if offset == fields["LookupPackets"]:
            return table.lookup_stats.packets
        if offset == fields["LookupBytes"]:
            return table.lookup_stats.bytes
        if offset == fields["MatchPackets"]:
            return table.match_stats.packets
        if offset == fields["MatchBytes"]:
            return table.match_stats.bytes
        if offset >= fields["Reg0"]:
            return stage.read_register(offset - fields["Reg0"])
        return None

    def _read_link(self, port_index, offset):
        if port_index is None or not 0 <= port_index < len(self.switch.ports):
            return None
        port = self.switch.ports[port_index]
        stats = self.switch.port_stats[port_index]
        fields = addressing.LINK_FIELDS
        if offset == fields["ID"]:
            return self.switch.link_id(port_index)
        if offset == fields["QueueSizeBytes"]:
            return port.occupancy_bytes
        if offset == fields["QueueSizePackets"]:
            return port.occupancy_packets
        if offset == fields["TX-Bytes"]:
            return port.tx_bytes
        if offset == fields["TX-Packets"]:
            return port.tx_packets
        if offset == fields["TX-Utilization"]:
            return stats.tx_utilization_bp
        if offset == fields["RX-Bytes"]:
            return port.rx_bytes
        if offset == fields["RX-Packets"]:
            return port.rx_packets
        if offset == fields["RX-Utilization"]:
            return stats.rx_utilization_bp
        if offset == fields["Drop-Bytes"]:
            return port.bytes_dropped_total
        if offset == fields["Drop-Packets"]:
            return port.packets_dropped_total
        if offset == fields["PortStatus"]:
            return 1 if (port.up and port.link is not None and port.link.up) else 0
        if offset == fields["TX-Rate"]:
            return int(stats.transmit.byte_rate)
        if offset == fields["RX-Rate"]:
            return int(stats.receive.byte_rate)
        if offset == fields["Capacity"]:
            return int(port.link.rate_bps // 1_000_000) if port.link else 0
        if offset >= fields["AppSpecific_0"]:
            reg = offset - fields["AppSpecific_0"]
            if reg >= 8:
                return None
            return self.app_registers.get((port_index, reg), 0)
        return None

    def _write_link(self, port_index, offset, value):
        if port_index is None or not 0 <= port_index < len(self.switch.ports):
            return False
        fields = addressing.LINK_FIELDS
        if offset >= fields["AppSpecific_0"]:
            reg = offset - fields["AppSpecific_0"]
            if reg >= 8:
                return False
            self.app_registers[(port_index, reg)] = value
            return True
        return False

    def _read_queue(self, port_index, queue_index, offset):
        if port_index is None or not 0 <= port_index < len(self.switch.ports):
            return None
        if queue_index not in (0, None):
            return None
        port = self.switch.ports[port_index]
        fields = addressing.QUEUE_FIELDS
        if offset == fields["QueueOccupancy"]:
            return port.occupancy_packets
        if offset == fields["QueueOccupancyBytes"]:
            return port.occupancy_bytes
        if offset == fields["Drop-Packets"]:
            return port.packets_dropped_total
        if offset == fields["Drop-Bytes"]:
            return port.bytes_dropped_total
        if offset == fields["TX-Packets"]:
            return port.packets_dequeued_total
        if offset == fields["TX-Bytes"]:
            return port.bytes_dequeued_total
        return None

    def _read_metadata(self, offset, context):
        values = (context.input_port, context.output_port, context.output_queue,
                  context.matched_entry_id, context.matched_entry_version,
                  context.matched_stage, context.hop_number, context.path_id,
                  context.packet_length,
                  int(context.arrival_time * 1e6) & 0xFFFFFFFF)
        return values[offset] if offset < len(values) else None

    def _write_packet_metadata(self, offset, value, context):
        fields = addressing.PACKET_METADATA_FIELDS
        if offset == fields["OutputPort"]:
            if not 0 <= value < len(self.switch.ports):
                return False
            context.output_port = value
            return True
        if offset == fields["OutputQueue"]:
            context.output_queue = value
            return True
        if offset == fields["PathID"]:
            context.path_id = value
            return True
        return False


def busy_switch():
    """A 2-stage, 3-port switch whose counters real traffic made non-zero.

    Deterministic, so two calls give two switches in identical states.  The
    tight packet cap on the bottleneck port leaves drop counters and a
    standing queue behind, and the run crosses several 1 ms statistics
    refreshes so rates and utilisations are non-zero too.
    """
    sim = Simulator()
    net = Network(sim)
    for name in ("h0", "h1", "h2"):
        net.add_host(name)
    switch = net.add_switch("s1", num_stages=2)
    for name in ("h0", "h1", "h2"):
        net.connect(name, "s1", rate_bps=mbps(10), queue_capacity_packets=4)
    net.install_shortest_path_routes()
    for burst in range(6):
        # Unequal flows, so no two ports end up with the same counters.
        for src, dst, count, size in (("h0", "h1", 4, 900), ("h2", "h1", 3, 700),
                                      ("h1", "h0", 2, 500), ("h1", "h2", 1, 300)):
            for _ in range(count):
                sim.schedule(burst * 1e-3, net.hosts[src].send,
                             udp_packet(src, dst, size))
    sim.run(until=5.4e-3)
    switch.pipeline.stages[1].registers[3] = 0x1234
    return switch


CONTEXTS = [
    PacketContext(),
    PacketContext(input_port=0, output_port=1, matched_entry_id=3,
                  matched_entry_version=2, matched_stage=1, hop_number=2,
                  path_id=9, packet_length=1500, arrival_time=2.5),
    PacketContext(input_port=2, output_port=0),     # RX vs TX port choice visible
    PacketContext(input_port=1, output_port=77),    # output port out of range
    PacketContext(input_port=5, output_port=1, output_queue=1),   # no such queue
]


class TestAgainstReferenceMemory:
    def test_traffic_left_something_to_read(self):
        switch = busy_switch()
        bottleneck = switch.ports[1]
        assert bottleneck.tx_packets and bottleneck.packets_dropped_total
        assert bottleneck.occupancy_bytes
        assert switch.port_stats[1].tx_utilization_bp
        for counter in ("rx_bytes", "rx_packets", "tx_bytes", "tx_packets"):
            assert len({getattr(port, counter) for port in switch.ports}) == 3, counter
        assert len({stats.rx_utilization_bp for stats in switch.port_stats}) == 3

    def test_every_address_reads_and_writes_like_the_reference(self):
        subject, model = busy_switch(), busy_switch()
        memory, reference = subject.memory, ReferenceMemory(model)
        space = range(addressing.ADDRESS_MAX + 1)
        for template in CONTEXTS:
            seen, expected = dataclasses.replace(template), dataclasses.replace(template)
            for address in space:            # cold, then (second sweep) warm
                assert memory.read(address, seen) == reference.read(address, expected), \
                    f"read {address:#06x} with {template}"
            for address in space:
                value = (address * 7 + 1) & 0xFFFF
                assert (memory.write(address, value, seen)
                        is reference.write(address, value, expected)), \
                    f"write {address:#06x} with {template}"
                assert seen == expected, f"context after write {address:#06x}"
                if seen.output_port != template.output_port:
                    # A store to [PacketMetadata:OutputPort] redirected the
                    # packet; keep sweeping with the template's port.
                    seen.output_port = expected.output_port = template.output_port
            seen, expected = dataclasses.replace(template), dataclasses.replace(template)
            for address in space:
                assert memory.read(address, seen) == reference.read(address, expected), \
                    f"read-back {address:#06x} with {template}"
        assert memory.app_registers == reference.app_registers
        assert memory.app_registers
        for ours, theirs in zip(subject.pipeline.stages, model.pipeline.stages):
            assert ours.registers == theirs.registers

    def test_read_resolver_is_the_closure_read_calls(self):
        memory = busy_switch().memory
        for name in ("[Switch:SwitchID]", "[Link:AppSpecific_0]", "[Queue$1$0:TX-Bytes]",
                     "[PacketMetadata:PathID]", "[Stage$1:Reg3]"):
            address = addressing.resolve(name)
            resolver = memory.read_resolver(address)
            assert memory.read_resolver(address) is resolver
            assert memory._resolved_reads[address] is resolver
            memory.read(address, PacketContext())
            assert memory._resolved_reads[address] is resolver

    def test_write_resolver_is_the_closure_write_calls(self):
        memory = busy_switch().memory
        context = PacketContext(output_port=1)
        for address in range(addressing.ADDRESS_MAX + 1):
            resolver = memory.write_resolver(address)
            assert memory.write_resolver(address) is resolver, f"{address:#06x}"
            if _decodes(address):
                assert memory._resolved_writes[address] is resolver
                memory.write(address, 0, context)
                assert memory._resolved_writes[address] is resolver
                context.output_port = 1
            else:
                assert resolver is _read_only, f"{address:#06x}"
                assert address not in memory._resolved_writes
        for name in TestAbsentAndReadOnly.READ_ONLY:
            assert memory.write_resolver(addressing.resolve(name)) is _read_only


class TestLiveness:
    """A closure resolved early must see state that changes later."""

    def test_resolved_addresses_see_later_changes(self):
        switch = busy_switch()
        memory, context = switch.memory, PacketContext(input_port=0, output_port=1)
        names = ["[Switch:NumPorts]", "[Switch:VersionNumber]", "[Stage$1:Reg0]",
                 "[Link$3:PortStatus]", "[Queue$3$0:QueueOccupancy]",
                 "[Link:AppSpecific_0]", "[Link$1:AppSpecific_0]"]
        address = {name: addressing.resolve(name) for name in names}
        before = {name: memory.read(address[name], context) for name in names}
        assert before["[Switch:NumPorts]"] == 3
        assert before["[Link$3:PortStatus]"] is None           # no port 3 yet
        assert before["[Queue$3$0:QueueOccupancy]"] is None
        assert not memory.write(address["[Link$3:PortStatus]"] + 5, 1, context)

        switch.add_port()
        switch.install_route("h9", output_port=3)
        switch.pipeline.stages[1].registers[0] += 41
        # Written through the packet-relative alias, read through both.
        assert memory.write(address["[Link:AppSpecific_0]"], 0xBEEF, context)

        after = {name: memory.read(address[name], context) for name in names}
        assert after["[Switch:NumPorts]"] == 4
        assert after["[Switch:VersionNumber]"] == before["[Switch:VersionNumber]"] + 1
        assert after["[Stage$1:Reg0]"] == before["[Stage$1:Reg0]"] + 41
        assert after["[Link$3:PortStatus]"] == 0               # exists, unattached
        assert after["[Queue$3$0:QueueOccupancy]"] == 0
        assert after["[Link:AppSpecific_0]"] == after["[Link$1:AppSpecific_0]"] == 0xBEEF
        # ... and the other way round, through the indexed address.
        assert memory.write(address["[Link$1:AppSpecific_0]"], 7, context)
        assert memory.read(address["[Link:AppSpecific_0]"], context) == 7
        assert memory.write(addressing.resolve("[Link$3:AppSpecific_2]"), 5, context)

    def test_output_port_store_is_checked_against_the_live_port_count(self):
        switch = busy_switch()
        address = addressing.resolve("[PacketMetadata:OutputPort]")
        context = PacketContext()
        assert not switch.memory.write(address, 3, context)
        switch.add_port()
        assert switch.memory.write(address, 3, context)
        assert context.output_port == 3


class TestAbsentAndReadOnly:
    """Graceful failure (§3.3) survives the cache: None / False, never a raise."""

    ABSENT = [0xC000, 0xFFFF, 0xA00A, 0x10000, 1 << 40, -1,
              addressing.DYNAMIC_LINK_BASE + addressing.LINK_FIELDS["AppSpecific_7"] + 1,
              addressing.link_address(1, "AppSpecific_7") + 1,
              addressing.stage_address(1, "Reg7") + 1,
              addressing.stage_address(5, "Reg0"),
              addressing.queue_address(1, 3, "TX-Bytes")]
    READ_ONLY = ["[Switch:SwitchID]", "[Queue:QueueOccupancy]", "[Queue$1$0:TX-Bytes]",
                 "[Link:TX-Bytes]", "[Link$1:Capacity]", "[Stage$0:LookupPackets]",
                 "[PacketMetadata:InputPort]", "[PacketMetadata:HopNumber]"]

    def test_cold_and_warm_answers_agree(self):
        memory = busy_switch().memory
        context = PacketContext(output_port=1)
        for _ in range(2):                   # second pass hits whatever was cached
            for address in self.ABSENT:
                assert memory.read(address, context) is None
                assert memory.read_resolver(address)(context) is None
                assert memory.write(address, 1, context) is False
            for name in self.READ_ONLY:
                address = addressing.resolve(name)
                assert memory.read(address, context) is not None
                assert memory.write(address, 1, context) is False
        assert context == PacketContext(output_port=1)
        assert memory.app_registers == {}

    def test_only_mapped_addresses_are_cached(self):
        memory = busy_switch().memory
        context = PacketContext()
        for address in range(-4, addressing.ADDRESS_MAX + 5):
            memory.read(address, context)
            memory.write(address + 0x20000, 0, context)
        mapped = sum(1 for address in range(addressing.ADDRESS_MAX + 1)
                     if _decodes(address))
        assert len(memory._resolved_reads) == len(memory._resolved_writes) == mapped


def _decodes(address):
    try:
        addressing.decode(address)
    except addressing.AddressError:
        return False
    return True


class TestFlattenedWordAccess:
    """``read_hop_word`` / ``write_hop_word`` make their own offset
    arithmetic and range check; the oracle's ``struct`` arithmetic
    (``tests/tcpu_oracle.py``) is the spec."""

    @staticmethod
    def _tpp(mode, word_bytes, hop_number, hop_size, memory_bytes):
        return TPP(instructions=[Instruction(Opcode.NOP)],
                   memory=bytearray((7 * i + 3) & 0xFF for i in range(memory_bytes)),
                   mode=mode, word_bytes=word_bytes, hop_size=hop_size,
                   hop_number=hop_number)

    @settings(max_examples=300, deadline=None)
    @given(mode=st.sampled_from(list(AddressingMode)),
           word_bytes=st.sampled_from([2, 4]),
           hop_number=st.integers(0, 12),
           hop_size=st.integers(1, 24),
           memory_bytes=st.integers(0, 64),
           word_offset=st.integers(-6, 40),
           hop=st.one_of(st.none(), st.integers(0, 12)),
           value=st.integers(-(1 << 33), 1 << 33))
    def test_equal_to_the_oracle_arithmetic(self, mode, word_bytes, hop_number,
                                            hop_size, memory_bytes, word_offset,
                                            hop, value):
        def fresh():
            return self._tpp(mode, word_bytes, hop_number, hop_size, memory_bytes)

        flat, spec = fresh(), fresh()
        assert (flat.read_hop_word(word_offset, hop)
                == read_word(spec, hop_offset(spec, word_offset, hop)))
        assert (flat.write_hop_word(word_offset, value, hop)
                is write_word(spec, hop_offset(spec, word_offset, hop), value))
        assert flat.memory == spec.memory

    def test_hop_words_keep_their_range_contract(self):
        tpp = self._tpp(AddressingMode.STACK, 4, 0, 1, 8)
        assert tpp.read_hop_word(-1) is None and tpp.read_hop_word(2) is None
        assert not tpp.write_hop_word(-1, 1) and not tpp.write_hop_word(2, 1)
        assert tpp.write_hop_word(1, -1) and tpp.read_hop_word(1) == 0xFFFFFFFF
        assert not hasattr(tpp, "_check_range")
