"""Tests for traffic generators and the TCP model."""

import pytest

from repro.net.flows import MessageWorkload, RateLimitedFlow, ThroughputMeter, next_flow_id
from repro.net.link import mbps
from repro.net.packet import udp_packet
from repro.net.sim import Simulator
from repro.net.tcp import TcpConnection
from repro.net.topology import Network, build_dumbbell


def two_hosts(rate=mbps(10)):
    net = Network(Simulator())
    net.add_host("a")
    net.add_host("b")
    net.add_switch("s")
    net.connect("a", "s", rate_bps=rate)
    net.connect("b", "s", rate_bps=rate)
    net.install_shortest_path_routes()
    return net.sim, net


class TestRateLimitedFlow:
    def test_rate_is_respected(self):
        sim, net = two_hosts()
        flow = RateLimitedFlow(sim, net.hosts["a"], "b", rate_bps=2e6,
                               packet_payload_bytes=1000)
        sim.run(until=1.0)
        sent_bps = flow.bytes_sent * 8
        assert sent_bps == pytest.approx(2e6, rel=0.05)

    def test_set_rate_changes_pacing(self):
        sim, net = two_hosts()
        flow = RateLimitedFlow(sim, net.hosts["a"], "b", rate_bps=1e6)
        sim.run(until=0.5)
        packets_at_slow = flow.packets_sent
        flow.set_rate(4e6)
        sim.run(until=1.0)
        assert flow.packets_sent - packets_at_slow > 2 * packets_at_slow

    def test_stop_and_stop_time(self):
        sim, net = two_hosts()
        flow = RateLimitedFlow(sim, net.hosts["a"], "b", rate_bps=1e6, stop_time=0.2)
        sim.run(until=1.0)
        total = flow.packets_sent
        assert total * 1042 * 8 <= 1e6 * 0.25
        flow.stop()
        assert not flow.running

    def test_invalid_rate_rejected(self):
        sim, net = two_hosts()
        with pytest.raises(ValueError):
            RateLimitedFlow(sim, net.hosts["a"], "b", rate_bps=0)
        flow = RateLimitedFlow(sim, net.hosts["a"], "b", rate_bps=1e6)
        with pytest.raises(ValueError):
            flow.set_rate(-1)

    def test_vlan_tag_applied_to_packets(self):
        sim, net = two_hosts()
        net.hosts["b"].keep_received_log = True
        flow = RateLimitedFlow(sim, net.hosts["a"], "b", rate_bps=1e6, vlan=0)
        flow.set_vlan(3)
        sim.run(until=0.1)
        assert all(p.vlan == 3 for p in net.hosts["b"].received_log)

    def test_flow_ids_unique(self):
        assert next_flow_id() != next_flow_id()


class TestMessageWorkload:
    def test_offered_load_approximately_respected(self):
        sim = Simulator()
        hosts = list(build_dumbbell(sim, link_rate_bps=mbps(10)).hosts.values())
        workload = MessageWorkload(sim, hosts, link_rate_bps=mbps(10), offered_load=0.3,
                                   message_bytes=10_000, seed=3)
        sim.run(until=2.0)
        offered_bps = sum(m.size_bytes for m in workload.messages_sent) * 8 / 2.0
        expected = 0.3 * mbps(10) * len(hosts)
        assert offered_bps == pytest.approx(expected, rel=0.3)

    def test_messages_split_into_mtu_packets(self):
        sim = Simulator()
        hosts = list(build_dumbbell(sim, link_rate_bps=mbps(10)).hosts.values())
        workload = MessageWorkload(sim, hosts, link_rate_bps=mbps(10),
                                   message_bytes=10_000, packet_payload_bytes=1000, seed=1)
        sim.run(until=0.5)
        assert workload.messages_sent
        assert all(m.packets == 10 for m in workload.messages_sent)

    def test_parameter_validation(self):
        sim = Simulator()
        hosts = list(build_dumbbell(sim).hosts.values())
        with pytest.raises(ValueError):
            MessageWorkload(sim, hosts, link_rate_bps=mbps(10), offered_load=0.0)
        with pytest.raises(ValueError):
            MessageWorkload(sim, hosts[:1], link_rate_bps=mbps(10))

    @pytest.mark.parametrize("knob,value", [
        ("packet_payload_bytes", 0), ("packet_payload_bytes", -1),
        ("message_bytes", 0), ("message_bytes", -5),
        ("message_bytes", float("nan"))])
    def test_absurd_sizes_rejected_before_scheduling(self, knob, value):
        sim = Simulator()
        hosts = list(build_dumbbell(sim).hosts.values())
        pending = sim.heap_size
        with pytest.raises(ValueError, match=f"{knob} must be an int >= 1"):
            MessageWorkload(sim, hosts, link_rate_bps=mbps(10), **{knob: value})
        assert sim.heap_size == pending and sim.events_executed == 0

    def test_deterministic_with_seed(self):
        def run(seed):
            sim = Simulator()
            hosts = list(build_dumbbell(sim, link_rate_bps=mbps(10)).hosts.values())
            workload = MessageWorkload(sim, hosts, link_rate_bps=mbps(10), seed=seed)
            sim.run(until=0.5)
            return [(m.src, m.dst, round(m.created_at, 9)) for m in workload.messages_sent]
        assert run(7) == run(7)
        assert run(7) != run(8)


class TestThroughputMeter:
    def test_windows_and_mean(self):
        sim = Simulator()
        meter = ThroughputMeter(sim, window_s=0.1)
        packet = udp_packet("a", "b", 958)      # 1000 B
        for i in range(10):
            sim.schedule(0.01 + i * 0.01, meter.on_packet, packet)
        sim.run(until=0.35)
        meter.stop()
        assert len(meter.windows) == 3
        assert meter.total_packets == 10
        assert meter.windows[0][1] == pytest.approx(10 * 1000 * 8 / 0.1, rel=0.2)
        assert meter.mean_throughput_bps(skip_windows=1) >= 0


class TestTcp:
    def test_finite_transfer_completes(self):
        sim, net = two_hosts(rate=mbps(10))
        connection = TcpConnection(sim, net.hosts["a"], net.hosts["b"], total_packets=50)
        sim.run(until=5.0)
        assert connection.finished
        assert connection.stats.completed_at is not None
        assert connection.stats.packets_delivered >= 50

    def test_long_lived_flow_fills_the_link(self):
        sim, net = two_hosts(rate=mbps(10))
        connection = TcpConnection(sim, net.hosts["a"], net.hosts["b"])
        sim.run(until=3.0)
        goodput = connection.goodput_bps(3.0)
        assert goodput > 0.5 * mbps(10)

    def test_loss_triggers_retransmission_and_cwnd_reduction(self):
        # A tiny switch queue forces drops once the window opens up.
        net = Network(Simulator())
        net.add_host("a")
        net.add_host("b")
        net.add_switch("s")
        net.connect("a", "s", rate_bps=mbps(50))
        net.connect("b", "s", rate_bps=mbps(5), queue_capacity_packets=5)
        net.install_shortest_path_routes()
        connection = TcpConnection(net.sim, net.hosts["a"], net.hosts["b"])
        net.sim.run(until=3.0)
        assert connection.stats.retransmissions > 0
        assert connection.cwnd < 200

    def test_ack_overhead_in_paper_range(self):
        sim, net = two_hosts(rate=mbps(10))
        connection = TcpConnection(sim, net.hosts["a"], net.hosts["b"])
        sim.run(until=3.0)
        overhead = connection.overhead_fraction()
        assert 0.005 < overhead < 0.035
