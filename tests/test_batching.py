"""Tests for burst injection, the group-selection memo and the busy-port
propagation leg.

The contract under test everywhere: a burst call or a memo hit is
*mechanical* — results, statistics, and the executed event sequence must be
identical to the equivalent per-packet calls and full scans.
"""

import pytest

from repro.core.compiler import compile_tpp
from repro.endhost.dataplane import DataplaneShim
from repro.endhost.filters import FilterEntry, PacketFilter
from repro.net.link import mbps
from repro.net.packet import udp_packet
from repro.net.sim import Simulator
from repro.net.topology import Network, build_dumbbell
from repro.switches.tables import Group, GroupTable


def small_net():
    sim = Simulator()
    return sim, build_dumbbell(sim, hosts_per_side=2, link_rate_bps=mbps(100))


def burst(src: str, dst: str, count: int, size: int = 700):
    return [udp_packet(src, dst, size, dport=2000) for _ in range(count)]


class TestHostSendMany:
    def test_burst_matches_sequential_sends(self):
        outcomes = []
        for batched in (False, True):
            sim, net = small_net()
            h0, h3 = net.hosts["h0"], net.hosts["h3"]
            h3.keep_received_log = True
            packets = burst("h0", "h3", 12)
            if batched:
                assert h0.send_many(packets) == 12
            else:
                for packet in packets:
                    assert h0.send(packet)
            net.stop_switch_processes()
            sim.run_until_idle()
            outcomes.append((h3.packets_received, h0.packets_sent,
                             sim.events_executed,
                             [p.size for p in h3.received_log]))
        assert outcomes[0] == outcomes[1]

    def test_send_many_counts_only_accepted(self):
        sim, net = small_net()
        h0 = net.hosts["h0"]
        h0.uplink_port.up = False
        assert h0.send_many(burst("h0", "h3", 3)) == 0

    def test_send_many_matches_loop_at_queue_capacity_boundary(self):
        # Regression: an idle transmitter dequeues the burst's head before
        # later packets hit the capacity check, so a burst one packet over
        # capacity is fully accepted — exactly like a loop of send() calls.
        outcomes = []
        for batched in (False, True):
            sim, net = small_net()
            h0 = net.hosts["h0"]
            packet_size = udp_packet("h0", "h3", 700).size
            h0.uplink_port.capacity_bytes = 3 * packet_size
            packets = burst("h0", "h3", 4)
            if batched:
                accepted = h0.uplink_port.send_many(packets)
            else:
                accepted = sum(h0.uplink_port.send(p) for p in packets)
            outcomes.append((accepted,
                             h0.uplink_port.packets_dropped_total))
        assert outcomes[0] == outcomes[1]
        assert outcomes[1] == (4, 0)

    def test_port_send_many_drop_accounting_when_link_down(self):
        sim, net = small_net()
        h0 = net.hosts["h0"]
        link = h0.uplink_port.link
        link.set_down()
        packets = burst("h0", "h3", 4)
        assert h0.send_many(packets) == 0
        assert all(p.dropped for p in packets)
        assert h0.uplink_port.packets_dropped_total == 4


class TestGroupSelectionMemo:
    def test_memoized_selection_is_stable_and_invalidated(self):
        table = GroupTable()
        table.install(Group(group_id=1, ports=[0, 1, 2], policy="hash"))
        packets = [udp_packet("a", "b", 100, sport=s) for s in (1, 2, 3, 1, 2)]
        first = [table.select(1, p) for p in packets]
        second = [table.select(1, p) for p in packets]
        assert first == second
        table.install(Group(group_id=1, ports=[5], policy="hash"))
        assert table.select(1, packets[0]) == 5

    def test_in_place_group_mutation_is_never_served_stale(self):
        table = GroupTable()
        group = table.groups.setdefault(
            1, Group(group_id=1, ports=[0, 1], policy="vlan"))
        packet = udp_packet("a", "b", 100)
        packet.vlan = 1
        assert table.select(1, packet) == 1      # memo populated
        group.ports = [7]                        # caller mutates in place
        assert table.select(1, packet) == 7      # state is part of the key


class TestShimBurst:
    def test_send_burst_stamps_and_counts(self):
        sim = Simulator()
        net = Network(sim)
        net.add_host("a")
        net.add_host("b")
        net.add_switch("s")
        net.connect("a", "s", rate_bps=mbps(100))
        net.connect("b", "s", rate_bps=mbps(100))
        net.install_shortest_path_routes()
        shim = DataplaneShim(net.hosts["a"])
        compiled = compile_tpp("PUSH [Switch:SwitchID]", num_hops=4)
        shim.install_filter(FilterEntry(filter=PacketFilter(protocol="udp"),
                                        app_id=1, tpp_template=compiled,
                                        sample_frequency=2))
        sent = shim.send_burst(burst("a", "b", 8))
        assert sent == 8
        assert shim.bursts_sent == 1
        # Deterministic 1-in-2 sampling stamps exactly half the burst.
        assert shim.tpps_attached == 4


class TestBatchedPropagationLeg:
    """A busy port posts (propagation, next-serialisation) at one instant, in
    that order; delivery must match the store-and-forward reference."""

    def test_delivery_times_match_store_and_forward_reference(self):
        # 10 packets through one bottleneck hop: delivery time of packet i at
        # the far host must be (i+1) * serialisation + 2 hops of serialisation
        # pipelining + propagation delays.
        sim, net = small_net()
        h0, h3 = net.hosts["h0"], net.hosts["h3"]
        h3.keep_received_log = True
        count, size = 10, 700
        packets = burst("h0", "h3", count, size=size)
        for packet in packets:
            h0.send(packet)
        wire = packets[0].size
        rate, delay = mbps(100), 50e-6
        tx = wire * 8.0 / rate
        net.stop_switch_processes()       # keep run_until_idle finite
        sim.run_until_idle()
        assert len(h3.received_log) == count
        for i, packet in enumerate(h3.received_log):
            # Serialise i+1 times back-to-back on the access link, then one
            # store-and-forward serialisation per switch hop (s0, s1), plus
            # three propagation delays.
            expected = (i + 1) * tx + 2 * tx + 3 * delay
            assert packet.delivered_at == pytest.approx(expected, rel=1e-12)
        # FIFO order is preserved.
        assert [p.flow_id for p in h3.received_log] == \
            [p.flow_id for p in packets]
