"""Network troubleshooting over packet histories (NetSight / ndb, §2.3).

NetSight's central construct is the *packet history*: the path a packet took
and the forwarding state applied to it at every hop.  The TPP refactoring
collects that record in-band, without asking switches to generate truncated
packet copies::

    PUSH [Switch:SwitchID]
    PUSH [PacketMetadata:MatchedEntryID]
    PUSH [PacketMetadata:InputPort]

On top of the collected histories this module implements the four NetSight
applications the paper mentions:

* ``netshark`` — a network-wide tcpdump: store histories, query by header
  and path predicates,
* ``ndb`` — the interactive debugger: breakpoint-style predicates over
  histories (e.g. "packets from A that traversed switch 3"),
* ``netwatch`` — live policy checking (isolation, waypointing, loop freedom),
* ``nprof`` (sketched) — per-entry/per-link profiling from history counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Optional

from repro.collect import CounterSummary, SummaryBundle, TopKSummary
from repro.core.compiler import CompiledTPP, compile_tpp
from repro.core.packet_format import TPP
from repro.endhost import Aggregator, PacketFilter
from repro.net import mbps
from repro.net.packet import Packet
from repro.session import ExperimentResult, Scenario

PACKET_HISTORY_TPP_SOURCE = """
PUSH [Switch:SwitchID]
PUSH [PacketMetadata:MatchedEntryID]
PUSH [PacketMetadata:InputPort]
"""

VALUES_PER_HOP = 3


def packet_history_tpp(num_hops: int = 10, app_id: int = 0) -> CompiledTPP:
    """Compile the §2.3 packet-history TPP."""
    return compile_tpp(PACKET_HISTORY_TPP_SOURCE, num_hops=num_hops, app_id=app_id)


@dataclass(frozen=True)
class HopRecord:
    """One hop of a packet history."""

    switch_id: int
    matched_entry_id: int
    input_port: int


@dataclass
class PacketHistory:
    """A packet's path through the network plus the state applied to it."""

    src: str
    dst: str
    protocol: str
    sport: int
    dport: int
    flow_id: int
    delivered_at: float
    hops: list[HopRecord] = field(default_factory=list)

    @property
    def switch_path(self) -> list[int]:
        return [hop.switch_id for hop in self.hops]

    def traversed(self, switch_id: int) -> bool:
        return switch_id in self.switch_path

    def matched_entry_at(self, switch_id: int) -> Optional[int]:
        for hop in self.hops:
            if hop.switch_id == switch_id:
                return hop.matched_entry_id
        return None


def history_from_tpp(tpp: TPP, packet: Packet) -> PacketHistory:
    """Build a :class:`PacketHistory` from a completed packet-history TPP."""
    history = PacketHistory(src=packet.src, dst=packet.dst, protocol=packet.protocol,
                            sport=packet.sport, dport=packet.dport, flow_id=packet.flow_id,
                            delivered_at=packet.delivered_at or 0.0)
    for hop in tpp.words_by_hop(VALUES_PER_HOP)[:tpp.hop_number]:
        if len(hop) < VALUES_PER_HOP:
            continue
        history.hops.append(HopRecord(switch_id=hop[0], matched_entry_id=hop[1],
                                      input_port=hop[2]))
    return history


HistoryPredicate = Callable[[PacketHistory], bool]


class HistoryStore:
    """netshark: a queryable store of packet histories."""

    def __init__(self) -> None:
        self.histories: list[PacketHistory] = []

    def add(self, history: PacketHistory) -> None:
        self.histories.append(history)

    def extend(self, histories: Iterable[PacketHistory]) -> None:
        self.histories.extend(histories)

    def __len__(self) -> int:
        return len(self.histories)

    # ------------------------------------------------------------------ queries
    def query(self, predicate: HistoryPredicate) -> list[PacketHistory]:
        """All histories satisfying an arbitrary predicate (ndb's breakpoint)."""
        return [history for history in self.histories if predicate(history)]

    def packets_through_switch(self, switch_id: int) -> list[PacketHistory]:
        return self.query(lambda h: h.traversed(switch_id))

    def packets_between(self, src: str, dst: str) -> list[PacketHistory]:
        return self.query(lambda h: h.src == src and h.dst == dst)

    def path_counts(self) -> Counter:
        """How many packets took each distinct switch-level path (nprof-style)."""
        return Counter(tuple(history.switch_path) for history in self.histories)

    def entry_usage(self) -> Counter:
        """(switch, matched entry) usage counts across all histories."""
        counts: Counter = Counter()
        for history in self.histories:
            for hop in history.hops:
                counts[(hop.switch_id, hop.matched_entry_id)] += 1
        return counts


@dataclass
class PolicyViolation:
    """One policy violation found by netwatch."""

    policy: str
    history: PacketHistory
    detail: str


class NetWatch:
    """Live policy checking over packet histories (§2.3's ``netwatch``)."""

    def __init__(self) -> None:
        self.policies: list[tuple[str, HistoryPredicate, str]] = []
        self.violations: list[PolicyViolation] = []

    def add_isolation_policy(self, name: str, src_prefix: str,
                             forbidden_dst_prefix: str) -> None:
        """Packets from ``src_prefix`` hosts must never reach ``forbidden_dst_prefix`` hosts."""
        def violated(history: PacketHistory) -> bool:
            return (history.src.startswith(src_prefix)
                    and history.dst.startswith(forbidden_dst_prefix))
        self.policies.append((name, violated, "tenant isolation breached"))

    def add_waypoint_policy(self, name: str, src_prefix: str, waypoint_switch: int) -> None:
        """Packets from ``src_prefix`` must traverse ``waypoint_switch`` (e.g. a firewall)."""
        def violated(history: PacketHistory) -> bool:
            return (history.src.startswith(src_prefix)
                    and not history.traversed(waypoint_switch))
        self.policies.append((name, violated, f"did not traverse waypoint {waypoint_switch}"))

    def add_loop_freedom_policy(self, name: str = "loop-freedom") -> None:
        """No packet may visit the same switch twice."""
        def violated(history: PacketHistory) -> bool:
            path = history.switch_path
            return len(path) != len(set(path))
        self.policies.append((name, violated, "forwarding loop detected"))

    def check(self, history: PacketHistory) -> list[PolicyViolation]:
        """Check one history against every registered policy."""
        found = []
        for name, violated, detail in self.policies:
            if violated(history):
                violation = PolicyViolation(policy=name, history=history, detail=detail)
                found.append(violation)
                self.violations.append(violation)
        return found


class NetSightAggregator(Aggregator):
    """Per-host aggregator: reconstructs histories, feeds netshark and netwatch."""

    def __init__(self, host_name: str,
                 netwatch: Optional[NetWatch] = None) -> None:
        super().__init__(host_name)
        self.store = HistoryStore()
        self.netwatch = netwatch
        self._paths = TopKSummary(k=16)     # folded per TPP, snapshot on push

    def on_tpp(self, tpp: TPP, packet: Packet) -> None:
        super().on_tpp(tpp, packet)
        history = history_from_tpp(tpp, packet)
        self.store.add(history)
        self._paths.observe(tuple(history.switch_path))
        if self.netwatch is not None:
            self.netwatch.check(history)

    def summarize(self) -> SummaryBundle:
        """A mergeable snapshot: history counters plus per-path tallies
        (path-count addition commutes, so shard merges reconstruct the
        network-wide nprof view exactly)."""
        return SummaryBundle({
            "counters": CounterSummary({"tpps": self.tpps_received,
                                        "tpps_truncated": self.tpps_truncated,
                                        "histories": len(self.store)}),
            "paths": self._paths.copy(),
        })


@dataclass
class NetSightExperimentResult:
    """A network-wide packet-history collection run (§2.3)."""

    store: HistoryStore                       # histories from every receiver
    violations: list[PolicyViolation]
    packets_instrumented: int
    histories_collected: int
    tpp_overhead_bytes_per_packet: int
    messages_sent: int


def _netsight_aggregator_factory(host_name: str,
                                 netwatch: Optional[NetWatch]) -> NetSightAggregator:
    """Per-host aggregator factory (module-level for pickling)."""
    return NetSightAggregator(host_name, netwatch=netwatch)


def _to_netsight_result(result: "ExperimentResult",
                        num_hops: int) -> NetSightExperimentResult:
    """Result mapper for :func:`netsight_scenario` (module-level for pickling).

    The netwatch is read back out of the live aggregators (they all share
    one instance) rather than closed over, so the mapper sees the copy the
    experiment actually ran with when the scenario crossed a process
    boundary as a spec.
    """
    store = HistoryStore()
    netwatch: Optional[NetWatch] = None
    for aggregator in result.aggregators("netsight").values():
        store.extend(aggregator.store.histories)
        if aggregator.netwatch is not None:
            netwatch = aggregator.netwatch
    store.histories.sort(key=lambda history: history.delivered_at)
    workload = result.workloads["messages"]
    return NetSightExperimentResult(
        store=store,
        violations=list(netwatch.violations) if netwatch else [],
        packets_instrumented=result.tpps_attached,
        histories_collected=len(store),
        tpp_overhead_bytes_per_packet=history_overhead_bytes(num_hops),
        messages_sent=len(workload.messages_sent))


def netsight_scenario(hosts_per_side: int = 3, link_rate_bps: float = mbps(10),
                      offered_load: float = 0.3, message_bytes: int = 10_000,
                      sample_frequency: int = 1, num_hops: int = 10,
                      netwatch: Optional[NetWatch] = None,
                      packet_filter: Optional[PacketFilter] = None,
                      seed: int = 1) -> Scenario:
    """Network-wide packet-history collection as a :class:`Scenario`.

    Deploys the §2.3 packet-history TPP on a message workload over a
    dumbbell; ``.run(duration_s=...)`` returns a
    :class:`NetSightExperimentResult` whose merged :class:`HistoryStore`
    answers netshark/ndb queries and whose ``violations`` come from the
    supplied :class:`NetWatch` (if any).  With the default ``netwatch=None``
    every hook is picklable, so ``netsight_scenario(...).to_spec()`` is
    sweepable (a NetWatch carrying policy closures is not picklable and is
    rejected eagerly by ``to_spec``).
    """
    return (Scenario("dumbbell", seed=seed, name="netsight",
                     hosts_per_side=hosts_per_side, link_rate_bps=link_rate_bps)
            .tpp("netsight", PACKET_HISTORY_TPP_SOURCE, num_hops=num_hops,
                 filter=packet_filter if packet_filter is not None else PacketFilter(),
                 sample_frequency=sample_frequency,
                 aggregator=partial(_netsight_aggregator_factory,
                                    netwatch=netwatch))
            .workload("messages", link_rate_bps=link_rate_bps,
                      offered_load=offered_load, message_bytes=message_bytes,
                      seed=seed)
            .map_result(partial(_to_netsight_result, num_hops=num_hops)))


def history_overhead_bytes(num_hops: int = 10) -> int:
    """The per-packet overhead of packet-history collection (§2.3's 84 bytes)."""
    return packet_history_tpp(num_hops=num_hops).tpp.wire_length()


def history_bandwidth_overhead(average_packet_bytes: int = 1000, num_hops: int = 10,
                               sample_frequency: int = 1) -> float:
    """Fractional bandwidth overhead of inserting the TPP on sampled packets."""
    return (history_overhead_bytes(num_hops) / average_packet_bytes) / sample_frequency
