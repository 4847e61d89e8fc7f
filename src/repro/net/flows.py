"""Traffic generators.

Three kinds of workloads drive the reproduced experiments:

* :class:`RateLimitedFlow` — a UDP stream paced at a configurable rate.  RCP*
  (§2.2) and CONGA* (§2.4) are built on flows like these whose rate or path
  is adjusted by the application.
* :class:`MessageWorkload` — the all-to-all short-message (incast-flavoured)
  workload of Figure 1: every host sends fixed-size messages to every other
  host with exponential inter-arrival times tuned to an offered load.
* :class:`ThroughputMeter` — receiver-side accounting used to produce the
  throughput time series the figures plot.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro import check_count

from .node import Host
from .packet import (ETHERNET_HEADER_BYTES, IPV4_HEADER_BYTES, UDP_HEADER_BYTES,
                     Packet, udp_packet)
from .sim import Simulator

_flow_ids = itertools.count(1)

#: Default maximum transport payload per packet (1500 B MTU minus headers).
DEFAULT_MTU_PAYLOAD = 1500 - IPV4_HEADER_BYTES - UDP_HEADER_BYTES


def next_flow_id() -> int:
    """Allocate a unique flow identifier."""
    return next(_flow_ids)


class RateLimitedFlow:
    """A paced UDP flow whose rate can be changed while it runs.

    The pacing is deterministic (one packet every ``packet_size/rate``
    seconds), which matches the paper's description of RCP* flows as
    "rate-limited UDP streams".
    """

    def __init__(self, sim: Simulator, src: Host, dst: str, rate_bps: float,
                 packet_payload_bytes: int = 1000, dport: int = 20000,
                 vlan: int = 0, flow_id: Optional[int] = None,
                 start_time: float = 0.0, stop_time: Optional[float] = None) -> None:
        if rate_bps <= 0:
            raise ValueError("flow rate must be positive")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rate_bps = rate_bps
        self.packet_payload_bytes = packet_payload_bytes
        self.dport = dport
        self.vlan = vlan
        self.flow_id = flow_id if flow_id is not None else next_flow_id()
        self.stop_time = stop_time
        self.packets_sent = 0
        self.bytes_sent = 0
        self.running = False
        self._next_send_event = None
        sim.schedule(start_time, self.start)

    # ----------------------------------------------------------------- control
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._schedule_next(0.0)

    def stop(self) -> None:
        self.running = False
        if self._next_send_event is not None:
            self._next_send_event.cancel()
            self._next_send_event = None

    def set_rate(self, rate_bps: float) -> None:
        """Change the pacing rate; takes effect from the next packet."""
        if rate_bps <= 0:
            raise ValueError("flow rate must be positive")
        self.rate_bps = rate_bps

    def set_vlan(self, vlan: int) -> None:
        """Change the path-selection tag stamped on subsequent packets (§2.4)."""
        self.vlan = vlan

    # ------------------------------------------------------------------ sending
    def _packet_interval(self) -> float:
        wire_bytes = (ETHERNET_HEADER_BYTES + IPV4_HEADER_BYTES + UDP_HEADER_BYTES
                      + self.packet_payload_bytes)
        return wire_bytes * 8.0 / self.rate_bps

    def _schedule_next(self, delay: float) -> None:
        self._next_send_event = self.sim.schedule(delay, self._send_one)

    def _send_one(self) -> None:
        if not self.running:
            return
        if self.stop_time is not None and self.sim.now >= self.stop_time:
            self.running = False
            return
        packet = udp_packet(self.src.name, self.dst, self.packet_payload_bytes,
                            dport=self.dport, flow_id=self.flow_id, vlan=self.vlan,
                            created_at=self.sim.now)
        self.src.send(packet)
        self.packets_sent += 1
        self.bytes_sent += packet.size
        self._schedule_next(self._packet_interval())


@dataclass
class Message:
    """One application message (a burst of back-to-back packets)."""

    src: str
    dst: str
    size_bytes: int
    created_at: float
    packets: int = 0


class MessageWorkload:
    """All-to-all short messages with exponential inter-arrivals (Figure 1).

    Each host sends ``message_bytes`` messages to destinations chosen
    round-robin among the other hosts; message arrivals form a Poisson
    process whose rate is set so the aggregate offered load equals
    ``offered_load`` of each host's access-link capacity.
    """

    def __init__(self, sim: Simulator, hosts: list[Host], link_rate_bps: float,
                 offered_load: float = 0.3, message_bytes: int = 10_000,
                 packet_payload_bytes: int = 1000, dport: int = 20000,
                 seed: int = 1, start_time: float = 0.0,
                 stop_time: Optional[float] = None) -> None:
        if not 0 < offered_load <= 1.0:
            raise ValueError("offered_load must be in (0, 1]")
        if len(hosts) < 2:
            raise ValueError("the workload needs at least two hosts")
        check_count("message_bytes", message_bytes)
        check_count("packet_payload_bytes", packet_payload_bytes)
        self.sim = sim
        self.hosts = hosts
        self.message_bytes = message_bytes
        self.packet_payload_bytes = packet_payload_bytes
        self.dport = dport
        self.stop_time = stop_time
        self.messages_sent: list[Message] = []
        self._rng = random.Random(seed)
        # Per-host message arrival rate: offered_load * capacity / message size.
        per_host_bps = offered_load * link_rate_bps
        self._message_rate = per_host_bps / (message_bytes * 8.0)
        self._destinations = {
            host.name: [other for other in hosts if other is not host] for host in hosts}
        self._dst_cursor = {host.name: 0 for host in hosts}
        for host in hosts:
            sim.schedule(start_time + self._next_interval(), self._send_message, host)

    def _next_interval(self) -> float:
        return self._rng.expovariate(self._message_rate)

    def _send_message(self, host: Host) -> None:
        if self.stop_time is not None and self.sim.now >= self.stop_time:
            return
        destinations = self._destinations[host.name]
        cursor = self._dst_cursor[host.name]
        dst = destinations[cursor % len(destinations)]
        self._dst_cursor[host.name] = cursor + 1

        message = Message(src=host.name, dst=dst.name, size_bytes=self.message_bytes,
                          created_at=self.sim.now)
        flow_id = next_flow_id()
        remaining = self.message_bytes
        while remaining > 0:
            payload = min(self.packet_payload_bytes, remaining)
            packet = udp_packet(host.name, dst.name, payload, dport=self.dport,
                                flow_id=flow_id, created_at=self.sim.now)
            host.send(packet)
            message.packets += 1
            remaining -= payload
        self.messages_sent.append(message)
        self.sim.schedule(self._next_interval(), self._send_message, host)


class ThroughputMeter:
    """Measures goodput at a receiving host in fixed windows.

    Attach with ``host.listen(dport, meter.on_packet)`` (or use it as the
    host's default listener); the per-window series is what Figure 2 and the
    CONGA experiment plot.
    """

    def __init__(self, sim: Simulator, window_s: float = 0.1,
                 on_window: Optional[Callable[[float, float], None]] = None) -> None:
        self.sim = sim
        self.window_s = window_s
        self.on_window = on_window
        self.total_bytes = 0
        self.total_packets = 0
        self.windows: list[tuple[float, float]] = []   # (window end time, throughput bps)
        self._window_bytes = 0
        self._process = sim.schedule_periodic(window_s, self._roll_window)

    def on_packet(self, packet: Packet) -> None:
        self.total_bytes += packet.size
        self.total_packets += 1
        self._window_bytes += packet.size

    def _roll_window(self) -> None:
        throughput_bps = self._window_bytes * 8.0 / self.window_s
        self.windows.append((self.sim.now, throughput_bps))
        if self.on_window is not None:
            self.on_window(self.sim.now, throughput_bps)
        self._window_bytes = 0

    def stop(self) -> None:
        self._process.stop()

    def mean_throughput_bps(self, skip_windows: int = 0) -> float:
        """Average over recorded windows, optionally skipping a warm-up prefix."""
        usable = self.windows[skip_windows:]
        if not usable:
            return 0.0
        return sum(bps for _, bps in usable) / len(usable)
