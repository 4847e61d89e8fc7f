"""Micro-burst detection (§2.1, Figure 1).

Every instrumented packet carries a three-instruction TPP::

    PUSH [Switch:SwitchID]
    PUSH [PacketMetadata:OutputPort]
    PUSH [Queue:QueueOccupancy]

so the receiving host sees, for each hop, the exact queue the packet was
enqueued behind and its occupancy *at the moment this packet traversed the
switch*.  Aggregating those samples per (switch, port) queue produces the
queue-occupancy time series and CDF of Figure 1b, at packet granularity —
which is what lets end-hosts catch micro-bursts that a polling monitor
(see :mod:`repro.baselines.polling_monitor`) would miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.collect import (CounterSummary, HistogramSummary, SeriesSummary,
                           SummaryBundle, TopKSummary)
from repro.core.compiler import CompiledTPP, compile_tpp
from repro.core.packet_format import TPP
from repro.endhost import Aggregator, PacketFilter
from repro.net import mbps
from repro.net.packet import Packet
from repro.session import ExperimentResult, Scenario
from repro.stats import TimeSeries, cdf, fraction_at_or_below

if TYPE_CHECKING:  # pragma: no cover
    from repro.net import MessageWorkload

#: The §2.1 program, verbatim apart from the explicit output-port read that
#: lets the aggregator distinguish the queues of a multi-port switch.
MICROBURST_TPP_SOURCE = """
PUSH [Switch:SwitchID]
PUSH [PacketMetadata:OutputPort]
PUSH [Queue:QueueOccupancy]
"""

#: Values each hop appends to packet memory.
VALUES_PER_HOP = 3

#: Histogram edges (packets) for the occupancy distribution the aggregator
#: summarises to the collector tier — power-of-two queue depths.
OCCUPANCY_EDGES = (0, 1, 2, 4, 8, 16, 32, 64, 128)


def microburst_tpp(num_hops: int = 6, app_id: int = 0) -> CompiledTPP:
    """Compile the micro-burst detection TPP."""
    return compile_tpp(MICROBURST_TPP_SOURCE, num_hops=num_hops, app_id=app_id)


@dataclass(frozen=True, slots=True)
class QueueSample:
    """One queue-occupancy observation extracted from a completed TPP."""

    time: float
    switch_id: int
    port: int
    occupancy_packets: int

    @property
    def queue_key(self) -> tuple[int, int]:
        return (self.switch_id, self.port)


class MicroburstAggregator(Aggregator):
    """Per-host aggregator: folds completed TPPs into per-queue monoids."""

    def __init__(self, host_name: str) -> None:
        super().__init__(host_name)
        # The mergeable monoids, folded per hop; summarize() snapshots them.
        self._occupancy = HistogramSummary(OCCUPANCY_EDGES)
        self._busiest = TopKSummary(k=8)
        self._queue_series = SeriesSummary()

    def on_tpp(self, tpp: TPP, packet: Packet) -> None:
        super().on_tpp(tpp, packet)
        now = packet.delivered_at if packet.delivered_at is not None else 0.0
        for hop in tpp.words_by_hop(VALUES_PER_HOP):
            if len(hop) < VALUES_PER_HOP:
                continue
            key, occupancy = (hop[0], hop[1]), hop[2]
            self._occupancy.observe(occupancy)
            self._busiest.observe(key)
            self._queue_series.add(now, key, occupancy)

    def summarize(self) -> SummaryBundle:
        """A mergeable snapshot: counters + occupancy histogram + busiest
        queues + the raw per-queue series (all commutative monoids, so the
        collector tier reconstructs the global view from any sharding)."""
        counters = CounterSummary({"tpps": self.tpps_received,
                                   "tpps_truncated": self.tpps_truncated,
                                   "samples": len(self._queue_series)})
        return SummaryBundle({"counters": counters,
                              "occupancy": self._occupancy.copy(),
                              "busiest_queues": self._busiest.copy(),
                              "queue_series": self._queue_series.copy()})


@dataclass
class MicroburstResult:
    """Everything Figure 1b plots, plus the raw samples."""

    samples: list[QueueSample]
    series: dict[tuple[int, int], TimeSeries]
    messages_sent: int
    packets_instrumented: int
    tpp_overhead_bytes_per_packet: int

    def queue_cdf(self, queue: tuple[int, int]) -> list[tuple[float, float]]:
        """Empirical CDF of occupancy samples for one queue."""
        values = self.series[queue].values if queue in self.series else []
        return cdf(values)

    def fraction_empty(self, queue: tuple[int, int]) -> float:
        """Fraction of packet arrivals that found this queue empty (Figure 1b's CDF)."""
        values = self.series[queue].values if queue in self.series else []
        return fraction_at_or_below(values, 0)

    def max_occupancy(self, queue: Optional[tuple[int, int]] = None) -> int:
        if queue is not None:
            series = self.series.get(queue)
            return int(series.maximum()) if series else 0
        return int(max((s.occupancy_packets for s in self.samples), default=0))

    @property
    def observed_queues(self) -> list[tuple[int, int]]:
        return sorted(self.series)


def _to_microburst_result(result: ExperimentResult) -> MicroburstResult:
    """Assemble the Figure 1 result object from the app's merged summary:
    samples in the merged series' canonical (time, queue, occupancy) order."""
    workload: MessageWorkload = result.workloads["messages"]
    merged = result.merged_summary("microburst-monitor")
    samples = [QueueSample(time, switch_id, port, occupancy)
               for time, (switch_id, port), occupancy
               in merged.get("queue_series", SeriesSummary()).samples]
    series: dict[tuple[int, int], TimeSeries] = {}
    for sample in samples:
        series.setdefault(sample.queue_key, TimeSeries()).add(
            sample.time, sample.occupancy_packets)
    return MicroburstResult(
        samples=samples,
        series=series,
        messages_sent=len(workload.messages_sent),
        packets_instrumented=result.tpps_attached,
        tpp_overhead_bytes_per_packet=microburst_tpp().tpp.wire_length())


def microburst_scenario(hosts_per_side: int = 3, link_rate_bps: float = mbps(100),
                        offered_load: float = 0.3, message_bytes: int = 10_000,
                        sample_frequency: int = 1, seed: int = 1,
                        num_hops: int = 6) -> Scenario:
    """The Figure 1 experiment as a :class:`Scenario`.

    Six hosts on a dumbbell send 10 kB messages to each other at 30 % offered
    load; every packet carries the micro-burst TPP, and the result merges the
    per-queue samples observed by all receivers.

    ``microburst_scenario(...).run(duration_s=1.0)`` returns a
    :class:`MicroburstResult`; tweak the scenario (extra TPP apps, different
    workloads) before running for variants.
    """
    return (Scenario("dumbbell", seed=seed, name="microburst",
                     hosts_per_side=hosts_per_side, link_rate_bps=link_rate_bps)
            .tpp("microburst-monitor", MICROBURST_TPP_SOURCE, num_hops=num_hops,
                 filter=PacketFilter(protocol="udp"),
                 sample_frequency=sample_frequency,
                 aggregator=MicroburstAggregator,
                 collector="microburst-collector")
            .workload("messages", link_rate_bps=link_rate_bps,
                      offered_load=offered_load, message_bytes=message_bytes,
                      seed=seed)
            .map_result(_to_microburst_result))
