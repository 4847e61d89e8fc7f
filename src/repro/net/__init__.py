"""Discrete-event network substrate: simulator, packets, links, hosts, topologies.

Names resolve on first use, so the traffic models (``flows``, ``tcp``) load
only for the experiments that generate their traffic.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "flows": ("MessageWorkload", "RateLimitedFlow", "ThroughputMeter",
              "next_flow_id"),
    "link": ("Link", "gbps", "mbps"),
    "node": ("Host", "Node"),
    "packet": ("Packet", "TPP_ETHERTYPE", "TPP_UDP_PORT", "tcp_packet",
               "tpp_probe_packet", "udp_packet"),
    "port": ("Port",),
    "sim": ("Event", "PeriodicProcess", "SimulationError", "Simulator"),
    "tcp": ("TcpConnection", "TcpStats"),
    "topology": ("Network", "build_conga_topology", "build_dumbbell",
                 "build_fat_tree", "build_from_rows", "build_leaf_spine",
                 "build_rcp_chain"),
})
