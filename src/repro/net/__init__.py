"""Discrete-event network substrate: simulator, packets, links, hosts, topologies."""

from .link import Link, gbps, mbps
from .node import Host, Node
from .packet import (Packet, TPP_ETHERTYPE, TPP_UDP_PORT, tcp_packet, tpp_probe_packet,
                     udp_packet)
from .port import Port
from .sim import Event, PeriodicProcess, SimulationError, Simulator
from .topology import (BuiltTopology, Network, build_conga_topology, build_dumbbell,
                       build_fat_tree, build_leaf_spine, build_rcp_chain)
from .flows import MessageWorkload, RateLimitedFlow, ThroughputMeter, next_flow_id
from .tcp import TcpConnection, TcpStats

__all__ = [
    "BuiltTopology", "Event", "Host", "Link", "MessageWorkload", "Network",
    "Node", "Packet", "PeriodicProcess", "Port", "RateLimitedFlow",
    "SimulationError", "Simulator", "TPP_ETHERTYPE", "TPP_UDP_PORT", "TcpConnection",
    "TcpStats", "ThroughputMeter", "build_conga_topology", "build_dumbbell",
    "build_fat_tree", "build_leaf_spine", "build_rcp_chain", "gbps", "mbps",
    "next_flow_id", "tcp_packet", "tpp_probe_packet", "udp_packet",
]
