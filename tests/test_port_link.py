"""Tests for ports (with their egress queues) and links."""

import math

import pytest

from repro.core.compiler import compile_tpp
from repro.net.link import Link, gbps, mbps
from repro.net.node import Host
from repro.net.packet import udp_packet
from repro.net.port import (DROP_CORRUPTED, DROP_LINK_DOWN, DROP_PEER_DOWN,
                            DROP_QUEUE_OVERFLOW)
from repro.net.sim import Simulator
from repro.net.topology import Network
from repro.obs import FlightRecorder
from repro.obs.flightrec import DEQUEUE, ENQUEUE, REC_A, REC_B, REC_KIND
from repro.session import Scenario


def _pair(rate=mbps(100), delay=1e-6, queue_bytes=512 * 1024, queue_packets=None):
    sim = Simulator()
    a, b = Host(sim, "a"), Host(sim, "b")
    pa = a.add_port(queue_bytes, queue_packets)
    pb = b.add_port(queue_bytes, queue_packets)
    link = Link(pa, pb, rate_bps=rate, delay_s=delay)
    return sim, a, b, link


class TestEgressQueue:
    """The port's drop-tail FIFO: packets waiting behind the one serialising."""

    def test_fifo_order(self):
        sim, a, b, _ = _pair(rate=mbps(10))
        b.keep_received_log = True
        packets = [udp_packet("a", "b", 958) for _ in range(4)]
        for packet in packets:
            a.send(packet)
        sim.run_until_idle()
        assert b.received_log == packets

    def test_occupancy_tracks_bytes_and_packets(self):
        sim, a, _, _ = _pair(rate=mbps(10))
        port = a.ports[0]
        a.send(udp_packet("a", "b", 958))      # idle: straight to the wire
        a.send(udp_packet("a", "b", 458))      # waits behind it
        assert port.transmitting
        assert (port.occupancy_packets, port.occupancy_bytes) == (1, 500)
        assert (port.packets_enqueued_total, port.bytes_enqueued_total) == (2, 1500)
        assert (port.packets_dequeued_total, port.bytes_dequeued_total) == (1, 1000)
        sim.run_until_idle()
        assert (port.occupancy_packets, port.occupancy_bytes) == (0, 0)
        assert (port.packets_dequeued_total, port.bytes_dequeued_total) == (2, 1500)

    def test_byte_capacity_drop(self):
        # One packet serialising plus 2000 waiting bytes fit; the next is over.
        sim, a, _, _ = _pair(rate=mbps(10), queue_bytes=2000)
        accepted = [a.send(udp_packet("a", "b", 958)) for _ in range(4)]
        assert accepted == [True, True, True, False]
        port = a.ports[0]
        assert (port.packets_dropped_total, port.bytes_dropped_total) == (1, 1000)
        assert port.drops_by_reason == {DROP_QUEUE_OVERFLOW: 1}

    def test_packet_capacity_drop(self):
        sim, a, _, _ = _pair(rate=mbps(10), queue_packets=2)
        accepted = [a.send(udp_packet("a", "b", 10)) for _ in range(4)]
        assert accepted == [True, True, True, False]
        assert a.ports[0].packets_dropped_total == 1

    def test_drained_port_goes_idle(self):
        sim, a, b, _ = _pair()
        port = a.ports[0]
        assert not port.transmitting and port.occupancy_packets == 0
        for _ in range(3):
            a.send(udp_packet("a", "b", 958))
        sim.run_until_idle()
        assert not port.transmitting and port.occupancy_packets == 0
        assert a.send(udp_packet("a", "b", 958)) and port.transmitting

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match=r"port a\.p0: .*capacity_bytes.*got 0"):
            _pair(queue_bytes=0)

    @pytest.mark.parametrize("queue_bytes, queue_packets, named", [
        (-1, None, "capacity_bytes"), (math.nan, None, "capacity_bytes"),
        (-math.inf, None, "capacity_bytes"),
        (512 * 1024, 0, "capacity_packets"), (512 * 1024, -3, "capacity_packets"),
    ])
    def test_absurd_capacities_name_the_port_and_value(self, queue_bytes,
                                                       queue_packets, named):
        # Regressions: a packet cap of 0 or -3 used to drop every packet as
        # queue-overflow, and a NaN byte cap never overflowed.
        value = queue_bytes if named == "capacity_bytes" else queue_packets
        with pytest.raises(ValueError, match=rf"port a\.p0: .*{named}.*{value!r}"):
            _pair(queue_bytes=queue_bytes, queue_packets=queue_packets)

    def test_infinite_byte_capacity_is_legal(self):
        sim, a, b, _ = _pair(queue_bytes=math.inf)
        assert all(a.send(udp_packet("a", "b", 958)) for _ in range(50))
        sim.run_until_idle()
        assert b.packets_received == 50

    def test_absurd_scenario_capacity_rejected_at_build(self):
        with pytest.raises(ValueError, match="capacity_packets"):
            Scenario("dumbbell", queue_capacity_packets=0).build()


class TestIdleCutThrough:
    """An idle, unrecorded port sends straight to serialisation; every
    observable — drops, records, TPP reads — is as if the packet had queued."""

    def test_oversized_packet_dropped_on_idle_port(self):
        sim, a, _, _ = _pair(queue_bytes=500)
        port = a.ports[0]
        assert a.send(udp_packet("a", "b", 958)) is False
        assert port.drops_by_reason == {DROP_QUEUE_OVERFLOW: 1}
        assert not port.transmitting and port.packets_enqueued_total == 0
        assert sim.pending_events == 0

    def test_link_down_idle_port_drops_before_serialisation(self):
        sim, a, _, link = _pair()
        link.set_down()
        port = a.ports[0]
        assert a.send(udp_packet("a", "b", 958)) is False
        assert port.drops_by_reason == {DROP_LINK_DOWN: 1}
        assert not port.transmitting and port.packets_enqueued_total == 0
        assert sim.pending_events == 0

    def test_recorded_idle_port_keeps_queue_records(self):
        sim, a, _, _ = _pair(rate=mbps(10))
        recorder = FlightRecorder().attach_nodes(sim, [a])
        first, second = udp_packet("a", "b", 958), udp_packet("a", "b", 458)
        a.send(first)                           # idle port
        a.send(second)                          # busy port
        sim.run_until_idle()
        queue_records = {
            packet.packet_id: [(r[REC_KIND], r[REC_A], r[REC_B])
                               for r in recorder.journey(packet.packet_id).records
                               if r[REC_KIND] in (ENQUEUE, DEQUEUE)]
            for packet in (first, second)}
        assert queue_records == {
            first.packet_id: [(ENQUEUE, 1, 1000), (DEQUEUE, 0, 0)],
            second.packet_id: [(ENQUEUE, 1, 500), (DEQUEUE, 0, 0)]}

    def test_queue_occupancy_read_behind_a_busy_port(self):
        # A fast ingress link feeds a slow egress port: the first packet
        # finds it idle, the second finds it serialising with nothing
        # waiting, and each later one sees one more packet waiting.
        sim = Simulator()
        net = Network(sim)
        for name in ("h0", "h1"):
            net.add_host(name)
        net.add_switch("s1")
        net.connect("h0", "s1", rate_bps=mbps(100))
        net.connect("h1", "s1", rate_bps=mbps(10))
        net.install_shortest_path_routes()
        net.hosts["h1"].keep_received_log = True
        compiled = compile_tpp("PUSH [Queue:QueueOccupancy]\n"
                               "PUSH [Queue:QueueOccupancyBytes]", num_hops=2)
        for _ in range(5):
            packet = udp_packet("h0", "h1", 958)
            packet.attach_tpp(compiled.clone_tpp())
            net.hosts["h0"].send(packet)
        net.stop_switch_processes()
        sim.run_until_idle()
        size = net.hosts["h1"].received_log[0].size
        assert [p.tpp.pushed_words() for p in net.hosts["h1"].received_log] == [
            [0, 0], [0, 0], [1, size], [2, 2 * size], [3, 3 * size]]


class TestLink:
    @pytest.mark.parametrize("rate, delay, named", [
        (0.0, 1e-6, "rate_bps"), (-1.0, 1e-6, "rate_bps"),
        (math.nan, 1e-6, "rate_bps"), (math.inf, 1e-6, "rate_bps"),
        (-math.inf, 1e-6, "rate_bps"),
        (mbps(100), math.nan, "delay_s"), (mbps(100), math.inf, "delay_s"),
        (mbps(100), -1e-6, "delay_s"),
    ])
    def test_absurd_rate_or_delay_names_the_link(self, rate, delay, named):
        # Regressions: a NaN rate or delay was accepted and failed mid-run
        # in the scheduler, naming no link.
        value = rate if named == "rate_bps" else delay
        with pytest.raises(ValueError,
                           match=rf"link a\.p0<->b\.p0: {named} .*{value!r}"):
            _pair(rate=rate, delay=delay)

    def test_infinite_scenario_rate_rejected_at_build(self):
        # Regression: an infinite rate paced the workload with zero gaps,
        # so the run never finished.
        with pytest.raises(ValueError, match=r"link .*rate_bps.*inf"):
            Scenario("dumbbell", link_rate_bps=math.inf).build(0.002)

    def test_other_end(self):
        _, a, b, link = _pair()
        assert link.other_end(a.ports[0]) is b.ports[0]
        assert link.other_end(b.ports[0]) is a.ports[0]

    def test_unit_helpers(self):
        assert mbps(100) == 100e6
        assert gbps(10) == 10e9


class TestTransmission:
    def test_packet_delivered_after_serialisation_and_propagation(self):
        sim, a, b, link = _pair(rate=mbps(100), delay=10e-6)
        packet = udp_packet("a", "b", 958)     # 1000 B on the wire
        b.keep_received_log = True
        a.send(packet)
        sim.run_until_idle()
        assert b.packets_received == 1
        expected = 1000 * 8 / mbps(100) + 10e-6
        assert packet.delivered_at == pytest.approx(expected)

    def test_back_to_back_packets_serialise(self):
        sim, a, b, _ = _pair(rate=mbps(10), delay=0.0)
        for _ in range(3):
            a.send(udp_packet("a", "b", 958))
        sim.run_until_idle()
        assert b.packets_received == 3
        # Three 1000-byte packets at 10 Mb/s take 2.4 ms to drain.
        assert sim.now == pytest.approx(3 * 1000 * 8 / mbps(10))

    def test_queue_overflow_drops_excess(self):
        sim, a, b, _ = _pair(rate=mbps(10), queue_packets=2)
        # One packet in flight + two queued fit; the rest are dropped.
        for _ in range(10):
            a.send(udp_packet("a", "b", 958))
        sim.run_until_idle()
        assert b.packets_received == 3
        assert a.ports[0].packets_dropped_total == 7

    def test_link_down_drops_packets(self):
        # A failed link and an admin-down sending port (link itself up) drop
        # alike: before serialisation, so no tx/link/rx counter moves.
        for failed in ("link", "port"):
            sim, a, b, link = _pair()
            if failed == "link":
                link.set_down()
            else:
                a.ports[0].up = False
            packet = udp_packet("a", "b", 100)
            assert a.send(packet) is False
            sim.run_until_idle()
            assert packet.dropped and "link down" in packet.drop_reason
            assert a.ports[0].drops_by_reason == {DROP_LINK_DOWN: 1}
            assert a.ports[0].packets_dropped_total == 1
            assert a.ports[0].tx_packets == link.total_packets == 0
            assert b.ports[0].rx_packets == 0
            link.set_up()
            a.ports[0].up = True
            assert a.send(udp_packet("a", "b", 100)) is True

    def test_counters_updated(self):
        sim, a, b, link = _pair()
        a.send(udp_packet("a", "b", 958))
        sim.run_until_idle()
        assert a.ports[0].tx_packets == 1
        assert a.ports[0].tx_bytes == 1000
        assert b.ports[0].rx_packets == 1
        assert link.total_packets == 1

    def test_drop_categories_on_transmit_path(self):
        sim, a, b, link = _pair(queue_packets=1)
        link.set_down()
        assert a.send(udp_packet("a", "b", 100)) is False
        link.set_up()
        for _ in range(4):                    # 1 in flight + 1 queued fit
            a.send(udp_packet("a", "b", 958))
        sim.run_until_idle()
        assert a.ports[0].drops_by_reason == {DROP_LINK_DOWN: 1,
                                              DROP_QUEUE_OVERFLOW: 2}

    def test_peer_down_drop_charged_to_sender(self):
        sim, a, b, link = _pair()
        packet = udp_packet("a", "b", 958)
        a.send(packet)
        b.ports[0].up = False                 # fails mid-flight
        sim.run_until_idle()
        assert packet.dropped
        assert packet.drop_reason == "peer port down"
        assert a.ports[0].drops_by_reason == {DROP_PEER_DOWN: 1}
        assert b.ports[0].rx_packets == 0
        # The packet did serialise: tx and link accounting stand.
        assert a.ports[0].tx_packets == 1
        assert link.total_packets == 1


class TestDegradation:
    def test_set_loss_validates_rate(self):
        _, _, _, link = _pair()
        with pytest.raises(ValueError):
            link.set_loss(1.5)
        with pytest.raises(ValueError):
            link.set_loss(-0.1)

    def test_transmit_path_corruption(self):
        # Total loss, then partial loss: the survivors are delivered and the
        # receive side accounts for exactly the corrupted ones.
        for loss_rate, count in ((1.0, 1), (0.5, 40)):
            sim, a, b, link = _pair()
            link.set_loss(loss_rate)
            packets = [udp_packet("a", "b", 958) for _ in range(count)]
            for packet in packets:
                a.send(packet)
            sim.run_until_idle()
            corrupted = link.packets_corrupted
            if loss_rate == 1.0:
                assert corrupted == count
            else:
                assert 0 < corrupted < count
            dropped = [p for p in packets if p.dropped]
            assert len(dropped) == corrupted
            assert all("corrupted on" in p.drop_reason for p in dropped)
            assert b.ports[0].rx_packets == b.packets_received == count - corrupted
            assert b.ports[0].drops_by_reason == {DROP_CORRUPTED: corrupted}
            assert a.ports[0].tx_packets == count   # they all did serialise
            assert link.counters()["bytes_corrupted"] == 1000 * corrupted

    def test_clear_loss_restores_delivery(self):
        sim, a, b, link = _pair()
        link.set_loss(1.0)
        link.clear_loss()
        a.send(udp_packet("a", "b", 958))
        sim.run_until_idle()
        assert b.packets_received == 1

    def test_default_rng_is_deterministic_per_link_name(self):
        draws = []
        for _ in range(2):
            sim, a, b, link = _pair()
            link.set_loss(0.5)
            outcomes = [link.corrupt() for _ in range(32)]
            draws.append(outcomes)
        assert draws[0] == draws[1]

    def test_transitions_counted_and_timestamped(self):
        sim, a, b, link = _pair()
        assert link.down_transitions == link.up_transitions == 0
        assert link.last_transition_time is None
        sim.schedule_at(0.5, link.set_down)
        sim.schedule_at(0.75, link.set_up)
        sim.run(until=1.0)
        assert link.down_transitions == 1
        assert link.up_transitions == 1
        assert link.last_transition_time == pytest.approx(0.75)

    def test_repeated_transitions_do_not_double_count(self):
        _, _, _, link = _pair()
        link.set_down()
        stamp = link.last_transition_time
        link.set_down()                        # already down: no-op
        assert link.down_transitions == 1
        assert link.last_transition_time == stamp
        link.set_up()
        link.set_up()                          # already up: no-op
        assert link.up_transitions == 1
