"""Loss localization: per-hop counter diffs name the corrupting link.

The gray-failure case the paper's diagnosis pitch is really about: a link
that stays *up* but silently corrupts a fraction of the packets crossing
it.  Path-level monitors see elevated loss somewhere; the TPP sees which
hop.  Every instrumented packet carries::

    PUSH [Switch:SwitchID]
    PUSH [Link:RX-Packets]
    PUSH [Link:TX-Packets]

so each hop stamps (switch id, the input port's cumulative rx-packet
counter, the output port's cumulative tx-packet counter).  For two
adjacent hops *i -> i+1* on the packet's path, the receiving host computes
the **deficit**::

    deficit = tx[i] + 1 - rx[i+1]

``tx[i]`` is read *before* the packet itself is transmitted and
``rx[i+1]`` *after* it is received (the +1 corrects for the packet
itself), and the link delivers in FIFO order — so on a healthy link every
packet transmitted before this one has already been counted at the far
side and the deficit is at most zero (queue-ahead traffic only drives it
negative).  Packets corrupted on the link advance ``tx`` but never
``rx``, so the deficit grows by one per cumulative corruption: the
directed switch pair with the largest positive deficit *names the lossy
link*, from nothing but two counters per hop.

The aggregator keeps a per-pair max deficit (``link_deficits``) and emits
it as a mergeable summary.  :func:`merged_deficits` folds the hosts'
maxima and :func:`localize` ranks them into link suspects, worst first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.collect import CounterSummary, SeriesSummary, SummaryBundle
from repro.core.packet_format import TPP
from repro.endhost import Aggregator, PacketFilter
from repro.net import mbps
from repro.net.packet import Packet
from repro.session import ExperimentResult, Scenario

#: Three counters per hop: who am I, what arrived, what left.
LOSSLOCAL_TPP_SOURCE = """
PUSH [Switch:SwitchID]
PUSH [Link:RX-Packets]
PUSH [Link:TX-Packets]
"""

#: Values each hop appends to packet memory.
VALUES_PER_HOP = 3


@dataclass(frozen=True)
class HopRecord:
    """One hop's stamp: switch id plus the two port counters."""

    switch_id: int
    rx_packets: int
    tx_packets: int


@dataclass(frozen=True)
class LinkSuspect:
    """A ranked verdict: ``link`` shows a ``deficit``-packet tx/rx gap.

    ``pair`` is the directed (sending switch id, receiving switch id) hop
    the deficit was measured over; ``deficit`` is the largest per-sample
    ``tx_sender + 1 - rx_receiver`` gap observed (healthy hops sit at or
    below zero).
    """

    link: str
    pair: tuple[int, int]
    deficit: int


class LossLocalizationAggregator(Aggregator):
    """Per-host aggregator: diffs adjacent hops, keeps per-pair max deficits."""

    def __init__(self, host_name: str) -> None:
        super().__init__(host_name)
        #: Adjacent-hop diffs computed so far (the summary's ``samples``).
        self.deficit_samples = 0
        #: Directed (sending sid, receiving sid) -> max deficit observed.
        self.link_deficits: dict[tuple[int, int], int] = {}

    def on_tpp(self, tpp: TPP, packet: Packet) -> None:
        super().on_tpp(tpp, packet)
        hops = []
        for words in tpp.words_by_hop(VALUES_PER_HOP):
            if len(words) < VALUES_PER_HOP:
                continue
            hops.append(HopRecord(switch_id=words[0], rx_packets=words[1],
                                  tx_packets=words[2]))
        for sender, receiver in zip(hops, hops[1:]):
            pair = (sender.switch_id, receiver.switch_id)
            deficit = sender.tx_packets + 1 - receiver.rx_packets
            self.deficit_samples += 1
            if deficit > self.link_deficits.get(pair, -(1 << 62)):
                self.link_deficits[pair] = deficit

    def summarize(self) -> SummaryBundle:
        """Counters plus the per-pair max deficits as a mergeable summary.

        Each deficit travels as a ``(0.0, "a->b", max)`` series sample: the
        shard tier's last-writer-wins keeps one (cumulative) snapshot per
        host, and the multiset union across hosts preserves every host's
        maximum for :func:`merged_deficits` to fold.
        """
        counters = CounterSummary({"tpps": self.tpps_received,
                                   "tpps_truncated": self.tpps_truncated,
                                   "samples": self.deficit_samples})
        deficits = SeriesSummary()
        for (sid_a, sid_b), deficit in self.link_deficits.items():
            deficits.add(0.0, f"{sid_a}->{sid_b}", deficit)
        return SummaryBundle({"counters": counters, "max_deficits": deficits})


def merged_deficits(result: ExperimentResult,
                    app: str = "loss-localization") -> dict[tuple[int, int], int]:
    """Per-pair max deficits folded across every host's aggregator, in
    sorted host order; an aggregator without ``link_deficits`` adds nothing."""
    aggregators = result.aggregators(app)
    folded: dict[tuple[int, int], int] = {}
    for host in sorted(aggregators):
        for pair, deficit in getattr(aggregators[host], "link_deficits", {}).items():
            if deficit > folded.get(pair, -(1 << 62)):
                folded[pair] = deficit
    return folded


def localize(result: ExperimentResult, *, app: str = "loss-localization",
             threshold: int = 1) -> list[LinkSuspect]:
    """Ranked suspects: pairs with deficit >= threshold that name a
    physical link, worst first (ties rank by pair, for determinism)."""
    network = result.network
    names = {switch.switch_id: name for name, switch in network.switches.items()}
    suspects = []
    for pair, deficit in sorted(merged_deficits(result, app).items(),
                                key=lambda kv: (-kv[1], kv[0])):
        if deficit < threshold:
            break
        # An unknown switch id maps to None, which no link connects.
        link = network.link_between(names.get(pair[0]), names.get(pair[1]))
        if link is not None:
            suspects.append(LinkSuspect(link=link.name, pair=pair, deficit=deficit))
    return suspects


@dataclass
class LossLocalizationResult:
    """What the detector concluded."""

    suspects: list[LinkSuspect]
    deficits: dict[tuple[int, int], int]
    tpps_received: int
    fault_events_applied: int
    packets_corrupted: int
    drop_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def accused_link(self) -> Optional[str]:
        """The top suspect's link name (None when the fabric looks clean)."""
        return self.suspects[0].link if self.suspects else None


def _to_losslocal_result(result: ExperimentResult) -> LossLocalizationResult:
    return LossLocalizationResult(
        suspects=localize(result),
        deficits=merged_deficits(result),
        tpps_received=result.tpps_received,
        fault_events_applied=result.fault_events_applied,
        packets_corrupted=result.packets_corrupted,
        drop_reasons=dict(result.drop_reasons))


def losslocal_scenario(name: str = "loss-localization", *, k: int = 4,
                       link_rate_bps: float = mbps(100),
                       offered_load: float = 0.2, message_bytes: int = 4_000,
                       sample_frequency: int = 1, seed: int = 1,
                       num_hops: int = 6, faults=None) -> Scenario:
    """The loss-localization experiment on a k-ary fat tree.

    All-hosts message traffic carries the detector TPP; pass ``faults``
    (a :class:`~repro.faults.FaultPlan` / :class:`~repro.faults.FaultSpec`
    or generator kwargs via ``Scenario.faults``) to degrade links.
    ``losslocal_scenario(...).run(duration_s=...)`` returns a
    :class:`LossLocalizationResult`.
    """
    scenario = (Scenario("fat-tree", seed=seed, name=name, k=k,
                         link_rate_bps=link_rate_bps)
                .tpp("loss-localization", LOSSLOCAL_TPP_SOURCE,
                     num_hops=num_hops,
                     filter=PacketFilter(protocol="udp"),
                     sample_frequency=sample_frequency,
                     aggregator=LossLocalizationAggregator,
                     collector="losslocal-collector")
                .workload("messages", link_rate_bps=link_rate_bps,
                          offered_load=offered_load,
                          message_bytes=message_bytes, seed=seed)
                .map_result(_to_losslocal_result))
    if faults is not None:
        scenario.faults(faults)
    return scenario
