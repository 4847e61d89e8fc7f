"""TCP baseline used for the §2.2 overhead comparison.

The paper reports that the bandwidth overhead of RCP*'s control TPPs is
1.0–6.0 % of the flows' rate for 3→99 long-lived flows, against TCP's
0.8–2.4 % (acks + headers).  This module measures the TCP side of that
comparison by running long-lived TCP connections over the same two-bottleneck
chain the RCP* experiment uses and reporting the control-byte fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net import Simulator, TcpConnection, build_rcp_chain, mbps


@dataclass
class TcpOverheadResult:
    """Aggregate overhead across all connections in one run."""

    num_flows: int
    data_payload_bytes: int
    control_bytes: int
    overhead_fraction: float
    mean_goodput_bps: float


def run_tcp_overhead_experiment(num_flows: int = 3, duration_s: float = 5.0,
                                link_rate_bps: float = mbps(10),
                                mss: int = 1240) -> TcpOverheadResult:
    """Run ``num_flows`` long-lived TCP flows and measure their control overhead.

    Flows are spread across the same source/destination pairs as the RCP*
    experiment (a: two bottlenecks, b and c: one each), so the ack paths share
    the reproduced topology's characteristics.
    """
    if num_flows < 1:
        raise ValueError("need at least one flow")
    sim = Simulator()
    network = build_rcp_chain(sim, link_rate_bps=link_rate_bps)
    pairs = [("ha", "ha_dst"), ("hb", "hb_dst"), ("hc", "hc_dst")]

    connections = []
    for index in range(num_flows):
        src, dst = pairs[index % len(pairs)]
        connections.append(TcpConnection(sim, network.hosts[src], network.hosts[dst],
                                         total_packets=None, mss=mss,
                                         start_time=0.001 * index))
    sim.run(until=duration_s)
    network.stop_switch_processes()

    payload_bytes = sum(c.stats.data_bytes_sent for c in connections)
    control_bytes = sum(c.stats.ack_bytes_sent for c in connections)
    overhead = control_bytes / payload_bytes if payload_bytes else 0.0
    goodput = sum(c.goodput_bps(duration_s) for c in connections) / len(connections)
    return TcpOverheadResult(num_flows=num_flows, data_payload_bytes=payload_bytes,
                             control_bytes=control_bytes, overhead_fraction=overhead,
                             mean_goodput_bps=goodput)
