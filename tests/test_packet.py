"""Tests for the packet model."""

import pytest

from repro.core.compiler import compile_tpp
from repro.net.packet import (ETHERNET_HEADER_BYTES, IPV4_HEADER_BYTES, TCP_HEADER_BYTES,
                              TPP_UDP_PORT, UDP_HEADER_BYTES, Packet, tcp_packet,
                              tpp_probe_packet, udp_packet)


def _tpp():
    return compile_tpp("PUSH [Switch:SwitchID]", num_hops=4).tpp


class TestPacketBasics:
    def test_udp_packet_size_includes_headers(self):
        packet = udp_packet("a", "b", payload_bytes=1000)
        expected = ETHERNET_HEADER_BYTES + IPV4_HEADER_BYTES + UDP_HEADER_BYTES + 1000
        assert packet.size == expected

    def test_tcp_packet_size_includes_headers(self):
        packet = tcp_packet("a", "b", payload_bytes=500)
        expected = ETHERNET_HEADER_BYTES + IPV4_HEADER_BYTES + TCP_HEADER_BYTES + 500
        assert packet.size == expected

    def test_zero_or_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Packet(src="a", dst="b", size=0)

    @pytest.mark.parametrize("protocol", ["UDP", "icmp"])
    def test_unknown_protocol_rejected(self, protocol):
        # No PacketFilter could ever select such a packet.
        with pytest.raises(ValueError, match="protocol"):
            Packet(src="a", dst="b", size=100, protocol=protocol)

    def test_packet_ids_are_unique(self):
        first = udp_packet("a", "b", 10)
        second = udp_packet("a", "b", 10)
        assert first.packet_id != second.packet_id

    def test_transmission_time(self):
        packet = Packet(src="a", dst="b", size=1250)
        assert packet.transmission_time(10e6) == pytest.approx(1e-3)

    def test_record_hop_builds_path(self):
        packet = udp_packet("a", "b", 10)
        packet.record_hop("a")
        packet.record_hop("s1")
        assert packet.path == ["a", "s1"]

    def test_copy_headers_resets_dynamic_state(self):
        packet = udp_packet("a", "b", 10, dport=99, flow_id=7)
        packet.record_hop("a")
        clone = packet.copy_headers()
        assert clone.dst == "b" and clone.dport == 99 and clone.flow_id == 7
        assert clone.path == []
        assert clone.packet_id != packet.packet_id


class TestTppAttachment:
    def test_attach_grows_size_by_wire_length(self):
        packet = udp_packet("a", "b", 100)
        base = packet.size
        tpp = _tpp()
        packet.attach_tpp(tpp)
        assert packet.size == base + tpp.wire_length()
        assert packet.is_tpp

    def test_detach_restores_size(self):
        packet = udp_packet("a", "b", 100)
        base = packet.size
        packet.attach_tpp(_tpp())
        packet.detach_tpp()
        assert packet.size == base
        assert not packet.is_tpp

    def test_double_attach_rejected(self):
        packet = udp_packet("a", "b", 100)
        packet.attach_tpp(_tpp())
        with pytest.raises(ValueError):
            packet.attach_tpp(_tpp())

    def test_detach_without_tpp_rejected(self):
        with pytest.raises(ValueError):
            udp_packet("a", "b", 100).detach_tpp()

    def test_probe_packet_is_standalone_and_uses_reserved_port(self):
        probe = tpp_probe_packet("a", "b", _tpp())
        assert probe.tpp_standalone
        assert probe.sport == TPP_UDP_PORT
        assert probe.is_tpp
