"""SNMP-style polling monitor — the baseline micro-burst detection is compared to.

The paper's point in §2.1 is that queue occupancy changes at RTT timescales,
so a monitor that polls counters every few seconds (SNMP, embedded web
servers) sees averages and misses bursts; Figure 1b's CDF shows one queue
empty at 80 % of packet arrivals, meaning a sampler will very likely observe
an empty queue even though the queue regularly spikes to 20+ packets.

:class:`PollingMonitor` reads queue occupancies directly from the switch model
at a fixed period (the control-plane path: no TPPs involved), producing the
sampled time series the benchmark contrasts with the per-packet TPP series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.sim import Simulator
from repro.net.topology import Network
from repro.stats import TimeSeries


@dataclass
class PollingMonitor:
    """Periodically samples every switch queue's occupancy."""

    sim: Simulator
    network: Network
    poll_interval_s: float = 1.0
    series: dict[tuple[int, int], TimeSeries] = field(default_factory=dict)
    polls: int = 0

    def __post_init__(self) -> None:
        self._process = self.sim.schedule_periodic(self.poll_interval_s, self._poll)

    def _poll(self) -> None:
        self.polls += 1
        now = self.sim.now
        for switch in self.network.switches.values():
            for port in switch.ports:
                key = (switch.switch_id, port.index)
                self.series.setdefault(key, TimeSeries()).add(
                    now, port.occupancy_packets)

    def stop(self) -> None:
        self._process.stop()

    def samples_total(self) -> int:
        return sum(len(ts) for ts in self.series.values())
