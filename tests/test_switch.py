"""Tests for the TPP-capable switch: forwarding, memory map, TPP execution."""

import math
from dataclasses import astuple

import pytest

from repro.core import addressing
from repro.core.compiler import compile_tpp
from repro.core.isa import Instruction, Opcode
from repro.core.packet_format import AddressingMode, make_tpp
from repro.core.tcpu import PacketContext
from repro.net.link import Link, mbps
from repro.net.packet import udp_packet
from repro.net.sim import Simulator
from repro.net.port import DROP_PIPELINE
from repro.net.topology import Network, build_dumbbell
from repro.switches.counters import StatsBlock, utilization_basis_points
from repro.switches.parser import parse, parse_graph_edges
from repro.switches.switch import HOP_LIMIT, TPPSwitch


def small_network(**switch_kwargs):
    """h0 - s1 - h1 with 10 Mb/s links."""
    sim = Simulator()
    net = Network(sim)
    net.add_host("h0")
    net.add_host("h1")
    net.add_switch("s1", **switch_kwargs)
    net.connect("h0", "s1", rate_bps=mbps(10))
    net.connect("h1", "s1", rate_bps=mbps(10))
    net.install_shortest_path_routes()
    return sim, net


class TestForwarding:
    def test_forwards_by_destination(self):
        sim, net = small_network()
        net.hosts["h1"].keep_received_log = True
        net.hosts["h0"].send(udp_packet("h0", "h1", 100))
        sim.run(until=0.01)
        assert net.hosts["h1"].packets_received == 1
        assert net.hosts["h1"].received_log[0].path == ["h0", "s1", "h1"]

    def test_unknown_destination_dropped(self):
        sim, net = small_network()
        net.hosts["h0"].send(udp_packet("h0", "nowhere", 100))
        sim.run(until=0.01)
        assert net.switches["s1"].packets_dropped == 1
        assert net.switches["s1"].packets_forwarded == 0

    def test_forwarding_latency_delays_packets(self):
        sim, net = small_network(forwarding_latency_s=1e-3)
        net.hosts["h0"].send(udp_packet("h0", "h1", 100))
        sim.run(until=0.1)
        packet_time = net.hosts["h1"].bytes_received and sim.now
        assert net.hosts["h1"].packets_received == 1


class TestTppExecutionAtSwitch:
    def test_tpp_collects_switch_id_and_metadata(self):
        sim, net = small_network()
        net.hosts["h1"].keep_received_log = True
        compiled = compile_tpp("PUSH [Switch:SwitchID]\nPUSH [PacketMetadata:InputPort]\n"
                               "PUSH [PacketMetadata:OutputPort]", num_hops=3)
        packet = udp_packet("h0", "h1", 100)
        packet.attach_tpp(compiled.clone_tpp())
        net.hosts["h0"].send(packet)
        sim.run(until=0.01)
        received = net.hosts["h1"].received_log[0]
        switch = net.switches["s1"]
        in_port = net.ports_towards("s1", "h0")[0]
        out_port = net.ports_towards("s1", "h1")[0]
        assert received.tpp.hop_number == 1
        assert received.tpp.words_by_hop(3) == [[switch.switch_id, in_port, out_port]]

    def test_tpp_disabled_switch_does_not_execute(self):
        sim, net = small_network(tpp_enabled=False)
        net.hosts["h1"].keep_received_log = True
        packet = udp_packet("h0", "h1", 100)
        packet.attach_tpp(compile_tpp("PUSH [Switch:SwitchID]").clone_tpp())
        net.hosts["h0"].send(packet)
        sim.run(until=0.01)
        assert net.hosts["h1"].received_log[0].tpp.hop_number == 0

    def test_write_disabled_switch_skips_stores(self):
        sim, net = small_network(write_enabled=False)
        switch = net.switches["s1"]
        tpp = make_tpp([Instruction(Opcode.STORE,
                                    addressing.resolve("[Link:AppSpecific_0]"),
                                    packet_offset=0)],
                       num_hops=1, mode=AddressingMode.HOP, initial_values=[42])
        packet = udp_packet("h0", "h1", 100)
        packet.attach_tpp(tpp)
        net.hosts["h0"].send(packet)
        sim.run(until=0.01)
        assert switch.memory.app_registers == {}

    def test_store_then_push_roundtrip_through_switch_memory(self):
        sim, net = small_network()
        switch = net.switches["s1"]
        net.hosts["h1"].keep_received_log = True
        # First packet writes 77 into the output link's AppSpecific_0 register.
        writer = make_tpp([Instruction(Opcode.STORE,
                                       addressing.resolve("[Link:AppSpecific_0]"),
                                       packet_offset=0)],
                          num_hops=1, mode=AddressingMode.HOP, initial_values=[77])
        first = udp_packet("h0", "h1", 100)
        first.attach_tpp(writer)
        net.hosts["h0"].send(first)
        sim.run(until=0.005)
        out_port = net.ports_towards("s1", "h1")[0]
        assert switch.memory.app_registers[(out_port, 0)] == 77
        # Second packet reads it back.
        reader = compile_tpp("PUSH [Link:AppSpecific_0]").clone_tpp()
        second = udp_packet("h0", "h1", 100)
        second.attach_tpp(reader)
        net.hosts["h0"].send(second)
        sim.run(until=0.01)
        assert net.hosts["h1"].received_log[-1].tpp.pushed_words() == [77]

    def test_output_port_rewrite_redirects_packet(self):
        # Three hosts on one switch; a TPP rewrites the output port so the
        # packet addressed to h1 is delivered to h2 instead (Table 2 allows it).
        sim = Simulator()
        net = Network(sim)
        for name in ("h0", "h1", "h2"):
            net.add_host(name)
        net.add_switch("s1")
        for name in ("h0", "h1", "h2"):
            net.connect(name, "s1", rate_bps=mbps(10))
        net.install_shortest_path_routes()
        port_to_h2 = net.ports_towards("s1", "h2")[0]
        tpp = make_tpp([Instruction(Opcode.STORE,
                                    addressing.resolve("[PacketMetadata:OutputPort]"),
                                    packet_offset=0)],
                       num_hops=1, mode=AddressingMode.HOP,
                       initial_values=[port_to_h2])
        packet = udp_packet("h0", "h1", 100)
        packet.attach_tpp(tpp)
        net.hosts["h0"].send(packet)
        sim.run(until=0.01)
        assert net.hosts["h2"].packets_received == 1
        assert net.hosts["h1"].packets_received == 0

    def test_redirect_loop_is_dropped_at_the_hop_limit(self):
        # Word 0 names the s0<->s1 port (1 on both switches), so s1 keeps
        # sending the packet back to s0, which forwards it to s1 again.
        sim = Simulator()
        net = build_dumbbell(sim, hosts_per_side=1, link_rate_bps=mbps(10))
        assert net.ports_towards("s0", "s1") == [1] == net.ports_towards("s1", "s0")
        tpp = make_tpp([Instruction(Opcode.STORE,
                                    addressing.resolve("[PacketMetadata:OutputPort]"),
                                    packet_offset=0)],
                       num_hops=1, mode=AddressingMode.STACK, initial_values=[1])
        packet = udp_packet("h0", "h1", 100)
        packet.attach_tpp(tpp)
        net.hosts["h0"].send(packet)
        sim.run(until=0.05)
        assert packet.dropped and packet.drop_reason == "hop limit at s1"
        assert len(packet.path) == HOP_LIMIT + 1
        assert net.switches["s1"].drops_by_reason == {DROP_PIPELINE: 1}
        assert net.hosts["h1"].packets_received == 0
        net.stop_switch_processes()
        sim.run_until_idle()

    def test_queue_occupancy_read_is_packet_consistent(self):
        # A fast ingress link feeding a slow egress link builds a queue; each
        # packet's TPP must observe the occupancy at the moment it is enqueued
        # (monotonically increasing for a back-to-back burst).
        sim = Simulator()
        net = Network(sim)
        net.add_host("h0")
        net.add_host("h1")
        net.add_switch("s1")
        net.connect("h0", "s1", rate_bps=mbps(100))
        net.connect("h1", "s1", rate_bps=mbps(10))
        net.install_shortest_path_routes()
        net.hosts["h1"].keep_received_log = True
        compiled = compile_tpp("PUSH [Queue:QueueOccupancy]", num_hops=2)
        for _ in range(5):
            packet = udp_packet("h0", "h1", 958)
            packet.attach_tpp(compiled.clone_tpp())
            net.hosts["h0"].send(packet)
        sim.run(until=0.1)
        occupancies = [p.tpp.pushed_words()[0] for p in net.hosts["h1"].received_log]
        assert occupancies[0] == 0
        assert max(occupancies) >= 3
        assert occupancies == sorted(occupancies)


class TestKnobValidation:
    @pytest.mark.parametrize("knob, value", [
        ("forwarding_latency_s", math.nan),
        ("forwarding_latency_s", -1e-6),
        ("forwarding_latency_s", math.inf),
        ("utilization_interval_s", math.nan),
        ("utilization_interval_s", math.inf),
        ("utilization_ewma_alpha", 5.0),
        ("utilization_ewma_alpha", -1.0),
        ("utilization_ewma_alpha", math.nan),
        ("clock_hz", math.nan),
        ("clock_hz", math.inf),
        ("clock_hz", 0.0),
    ])
    def test_out_of_range_knob_rejected_at_construction(self, knob, value):
        with pytest.raises(ValueError, match=f"switch s9: {knob}"):
            TPPSwitch(Simulator(), "s9", switch_id=9, **{knob: value})

    @pytest.mark.parametrize("knob, value", [
        ("forwarding_latency_s", 0.0), ("utilization_ewma_alpha", 0.0),
        ("utilization_ewma_alpha", 1.0), ("clock_hz", 160e6),
    ])
    def test_in_range_knob_accepted(self, knob, value):
        assert getattr(TPPSwitch(Simulator(), "s9", switch_id=9, **{knob: value}), knob) == value


class TestReusedPacketContext:
    """Each switch builds one PacketContext, at construction, and refills it
    only on a hop where a TPP will read it."""

    N = 12

    @pytest.fixture
    def built(self, monkeypatch):
        """Every PacketContext the switch module constructs during the test."""
        built = []

        class CountingContext(PacketContext):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr("repro.switches.switch.PacketContext", CountingContext)
        return built

    def run_packets(self, with_tpp, **switch_kwargs):
        sim, net = small_network(**switch_kwargs)
        compiled = compile_tpp("PUSH [Switch:SwitchID]", num_hops=2)
        for _ in range(self.N):
            packet = udp_packet("h0", "h1", 100)
            if with_tpp:
                packet.attach_tpp(compiled.clone_tpp())
            net.hosts["h0"].send(packet)
        sim.run(until=0.05)
        assert net.hosts["h1"].packets_received == self.N
        assert net.switches["s1"].packets_forwarded == self.N
        return net.switches["s1"]

    def test_bare_packets_leave_the_context_untouched(self, built):
        switch = self.run_packets(with_tpp=False)
        assert built == [switch._context]
        assert astuple(switch._context) == astuple(PacketContext())
        assert switch.tpp_packets_seen == 0

    def test_tpp_disabled_switch_leaves_the_context_untouched(self, built):
        switch = self.run_packets(with_tpp=True, tpp_enabled=False)
        assert built == [switch._context]
        assert astuple(switch._context) == astuple(PacketContext())
        assert switch.tpp_packets_seen == 0

    def test_one_context_per_switch_however_many_tpp_hops(self, built):
        switch = self.run_packets(with_tpp=True)
        assert built == [switch._context]
        assert switch._context.arrival_time > 0
        assert switch.tpp_packets_seen == self.N

    def test_second_tpp_sees_its_own_metadata_not_the_first_ones_writes(self):
        # The first TPP stores PathID and OutputQueue and redirects h1's
        # packet to h2; the second, through the same refilled context, reads
        # its own VLAN tag, queue 0 and its own route to h1.
        sim = Simulator()
        net = Network(sim)
        for name in ("h0", "h1", "h2"):
            net.add_host(name)
        net.add_switch("s1")
        for name in ("h0", "h1", "h2"):
            net.connect(name, "s1", rate_bps=mbps(10))
        net.install_shortest_path_routes()
        net.hosts["h1"].keep_received_log = True
        (port_to_h1,), (port_to_h2,) = (net.ports_towards("s1", h) for h in ("h1", "h2"))
        writer = compile_tpp("STORE [PacketMetadata:PathID], [Packet:Hop[0]]\n"
                             "STORE [PacketMetadata:OutputQueue], [Packet:Hop[1]]\n"
                             "STORE [PacketMetadata:OutputPort], [Packet:Hop[2]]",
                             num_hops=1, initial_values=[77, 3, port_to_h2])
        reader = compile_tpp("PUSH [PacketMetadata:PathID]\n"
                             "PUSH [PacketMetadata:OutputQueue]\n"
                             "PUSH [PacketMetadata:OutputPort]", num_hops=1)
        for compiled, vlan in ((writer, 9), (reader, 5)):
            packet = udp_packet("h0", "h1", 100, vlan=vlan)
            packet.attach_tpp(compiled.clone_tpp())
            net.hosts["h0"].send(packet)
        sim.run(until=0.01)
        assert net.hosts["h2"].packets_received == 1
        assert net.hosts["h1"].packets_received == 1
        assert net.hosts["h1"].received_log[-1].tpp.pushed_words() == [5, 0, port_to_h1]
        assert net.switches["s1"].tpp_packets_seen == 2

    def test_every_packet_metadata_field_reads_the_forwarding_state(self):
        # All ten [PacketMetadata:*] fields (Table 2), five PUSHes a TPP —
        # the instruction limit — read at the second switch of h0-s1-s2-h1
        # and checked against values computed without the context: ports
        # from the topology, the entry from the table it was installed in,
        # arrival from the link arithmetic.
        sim = Simulator()
        net = Network(sim)
        for name in ("h0", "h1"):
            net.add_host(name)
        for name in ("s1", "s2"):
            net.add_switch(name)
        hops = [net.connect(a, b, rate_bps=mbps(10))
                for a, b in (("h0", "s1"), ("s1", "s2"), ("s2", "h1"))]
        net.switches["s1"].install_route("h1", net.ports_towards("s1", "s2")[0])
        s2 = net.switches["s2"]
        in_port = net.ports_towards("s2", "s1")[0]
        out_port = net.ports_towards("s2", "h1")[0]
        entry = s2.install_route("h1", out_port, stage=2)
        h1 = net.hosts["h1"]
        h1.keep_received_log = True

        fields = list(addressing.PACKET_METADATA_FIELDS)
        assert len(fields) == 10
        sizes = []
        for half in (fields[:5], fields[5:]):
            source = "\n".join(f"PUSH [PacketMetadata:{name}]" for name in half)
            packet = udp_packet("h0", "h1", 100, vlan=7)
            packet.attach_tpp(compile_tpp(source, num_hops=2, word_bytes=4).clone_tpp())
            sizes.append(packet.size)
            net.hosts["h0"].send(packet)
        sim.run(until=0.01)

        # Store-and-forward: the second packet leaves each hop one of its
        # own serialisations after the first packet did.
        tx = [size * 8.0 / mbps(10) for size in sizes]
        arrival_at_s2 = tx[0] + 2 * tx[1] + hops[0].delay_s + hops[1].delay_s
        first, second = (packet.tpp.words_by_hop(5)[1] for packet in h1.received_log)
        assert first == [in_port, out_port, 0, entry.entry_id, entry.version]
        assert second == [2, 1, 7, sizes[1], int(arrival_at_s2 * 1e6)]
        assert entry.entry_id > 0 and int(arrival_at_s2 * 1e6) > 0


class TestSwitchMemoryMap:
    def test_switch_namespace_reads(self):
        sim, net = small_network()
        switch = net.switches["s1"]
        context = PacketContext(input_port=0, output_port=1)
        read = lambda m: switch.memory.read(addressing.resolve(m), context)
        assert read("[Switch:SwitchID]") == switch.switch_id
        assert read("[Switch:NumPorts]") == 2
        assert read("[Switch:VendorID]") == switch.vendor_id
        assert read("[Switch:VersionNumber]") == switch.forwarding_version

    def test_link_namespace_reads(self):
        sim, net = small_network()
        switch = net.switches["s1"]
        context = PacketContext(input_port=0, output_port=1)
        read = lambda m: switch.memory.read(addressing.resolve(m), context)
        assert read("[Link$1:Capacity]") == 10
        assert read("[Link$1:PortStatus]") == 1
        assert read("[Link:QueueSizeBytes]") == 0
        assert read("[Link$0:ID]") == switch.link_id(0)

    def test_dynamic_rx_fields_resolve_to_input_port(self):
        sim, net = small_network()
        switch = net.switches["s1"]
        switch.ports[0].rx_bytes = 111
        switch.ports[1].rx_bytes = 222
        context = PacketContext(input_port=0, output_port=1)
        value = switch.memory.read(addressing.resolve("[Link:RX-Bytes]"), context)
        assert value == 111
        tx_context_value = switch.memory.read(addressing.resolve("[Link:TX-Bytes]"), context)
        assert tx_context_value == switch.ports[1].tx_bytes

    def test_nonexistent_addresses_return_none(self):
        sim, net = small_network()
        switch = net.switches["s1"]
        context = PacketContext()
        assert switch.memory.read(addressing.resolve("[Link$50:ID]"), context) is None
        assert switch.memory.read(addressing.resolve("[Stage$30:Reg0]"), context) is None
        assert switch.memory.read(addressing.resolve("[Queue$0$3:QueueOccupancy]"),
                                  context) is None

    def test_counters_are_read_only(self):
        sim, net = small_network()
        switch = net.switches["s1"]
        context = PacketContext(output_port=1)
        assert not switch.memory.write(addressing.resolve("[Switch:SwitchID]"), 9, context)
        assert not switch.memory.write(addressing.resolve("[Link:TX-Bytes]"), 9, context)
        assert not switch.memory.write(addressing.resolve("[Queue:QueueOccupancy]"), 9, context)

    def test_stage_register_write(self):
        sim, net = small_network()
        switch = net.switches["s1"]
        context = PacketContext()
        address = addressing.resolve("[Stage$1:Reg2]")
        assert switch.memory.write(address, 314, context)
        assert switch.memory.read(address, context) == 314

    def test_utilization_updates_with_traffic(self):
        sim, net = small_network()
        switch = net.switches["s1"]
        # Saturate the h1-facing link for 50 ms.
        for _ in range(100):
            net.hosts["h0"].send(udp_packet("h0", "h1", 958))
        sim.run(until=0.05)
        out_port = net.ports_towards("s1", "h1")[0]
        utilization = switch.port_stats[out_port].tx_utilization_bp
        assert utilization > 9000   # essentially saturated


class TestCountersHelpers:
    def test_stats_block_rates(self):
        block = StatsBlock()
        block.count(1000, packets=2)
        block.update_rates(0.5)
        assert block.byte_rate == pytest.approx(2000)
        assert block.packet_rate == pytest.approx(4)
        block.count(500)
        block.update_rates(0.5, ewma_alpha=0.5)
        assert block.byte_rate == pytest.approx(0.5 * 1000 + 0.5 * 2000)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            StatsBlock().update_rates(0)

    def test_utilization_basis_points_clamped(self):
        assert utilization_basis_points(0, 1e6) == 0
        assert utilization_basis_points(1e9, 1e6) == 10000
        assert utilization_basis_points(125_000 / 2, 1e6) == 5000


class TestParser:
    def test_parse_modes(self):
        plain = udp_packet("a", "b", 10)
        assert parse(plain).mode == "none"
        piggy = udp_packet("a", "b", 10)
        piggy.attach_tpp(compile_tpp("PUSH [Switch:SwitchID]").clone_tpp())
        assert parse(piggy).mode == "piggybacked"
        from repro.net.packet import tpp_probe_packet
        probe = tpp_probe_packet("a", "b", compile_tpp("PUSH [Switch:SwitchID]").clone_tpp())
        assert parse(probe).mode == "standalone"

    def test_parse_graph_has_both_tpp_entry_points(self):
        edges = parse_graph_edges()
        tpp_edges = [edge for edge in edges if edge[1] == "TPP"]
        assert len(tpp_edges) == 2
        sources = {edge[0] for edge in tpp_edges}
        assert sources == {"Ethernet", "UDP"}
