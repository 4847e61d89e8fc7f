"""repro.obs.flightrec — the dataplane flight recorder.

The paper's promise is *visibility*: an operator should be able to ask
"what happened to this packet, hop by hop?".  Aggregate counters
(``Port.drops_by_reason``, ``ExperimentResult.drop_reasons``) answer *how
many*; the flight recorder answers *which packet*, *where in the
pipeline*, and *why this one* — the NetSight-style postcard log, kept
inside the simulator instead of reconstructed from the wire.

Design:

* **Hooks, not wrappers.**  Every dataplane object that can touch a packet
  (``Host``, ``Port``, ``Link``, ``TPPSwitch``) carries a ``recorder``
  attribute that is ``None`` by default.  Each lifecycle site — host send,
  port enqueue/dequeue, link deliver, the one drop site
  (:func:`repro.net.port.drop`, for every port and switch ledger),
  switch receive, TPP execution — guards its record call with one
  ``is not None`` check.  With no recorder attached the dataplane executes
  exactly the pre-recorder code (the recorder-off byte-identity invariant,
  differential-tested on all six apps).
* **Bounded rings.**  Records land in per-node ring buffers
  (``deque(maxlen=capacity)``); overwrites are counted, never silent.
  Nothing is counted per record: every record takes one ``seq``, so the
  last seq is the number written, and every append to a full ring evicts
  exactly one record, so the overwrites are written less retained.
* **Compact tuple records.**  One record is a flat 9-tuple
  ``(seq, time, node, kind, packet_id, flow_id, site, a, b)`` — no objects
  on the hot path: a record costs its hook call, one shared append call
  and one tuple append, and the filters are skipped outright when none is
  set.  ``seq`` is a recorder-wide monotone sequence so records with equal
  timestamps keep their true order.
* **Policies.**  :class:`RecorderSpec` declares sampling (1-in-N flows by
  stable flow-id hash: a sampled flow is recorded at *every* hop, an
  unsampled one at none, so journeys are never partial), an app filter
  (record only packets carrying a TPP of the named applications), a link
  filter (tap only ports attached to the named links), and the ring
  capacity.  **Drop records bypass flow sampling** — forensics stay
  complete even at sample_every=1000 — but respect the app/link filters.
* **Recording is pure observation.**  No random draws, no scheduled
  events, no packet mutation: a run with the recorder on is byte-identical
  (event totals, canonical ResultSummary JSON) to the same run with it
  off.

Record kinds and their ``site`` / ``a`` / ``b`` slots::

    host-send    host name        size            dst
    enqueue      port name        occupancy_pkts  occupancy_bytes (after)
    dequeue      port name        occupancy_pkts  occupancy_bytes (after)
    deliver      rx port name     size            link name
    switch-recv  switch name      input port idx  size
    tpp-exec     switch name      status label    executed instruction count
    drop         port/switch name drop category   human-readable reason
    fault        link name        action          detail (loss rate / None)

Query API: :meth:`JourneyLog.journey` (one packet's ordered hop records),
:meth:`JourneyLog.trace_flow` (every sampled packet of a flow),
:meth:`JourneyLog.explain_drop` (ordered hop records + the terminal drop
site/category/reason, with the latest preceding fault record on the drop
port's link as context).  A :class:`JourneyLog` is a picklable snapshot — it
crosses process boundaries on :class:`~repro.session.ResultSummary`, so
sweep workers ship journeys home.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Optional

from repro import check_count
from repro.core.tcpu import InstructionStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.net.node import Host, Node
    from repro.net.packet import Packet
    from repro.net.port import Port
    from repro.net.sim import Simulator
    from repro.net.topology import Network
    from repro.switches.switch import TPPSwitch

__all__ = [
    "DropExplanation", "FlightRecorder", "JourneyLog", "PacketJourney",
    "RecorderSpec",
    "REC_SEQ", "REC_TIME", "REC_NODE", "REC_KIND", "REC_PACKET", "REC_FLOW",
    "REC_SITE", "REC_A", "REC_B",
    "HOST_SEND", "ENQUEUE", "DEQUEUE", "DELIVER", "SWITCH_RECV", "TPP_EXEC",
    "DROP", "FAULT",
]

# Tuple slots of one record.
REC_SEQ, REC_TIME, REC_NODE, REC_KIND = 0, 1, 2, 3
REC_PACKET, REC_FLOW, REC_SITE, REC_A, REC_B = 4, 5, 6, 7, 8

# Record kinds.
HOST_SEND = "host-send"
ENQUEUE = "enqueue"
DEQUEUE = "dequeue"
DELIVER = "deliver"
SWITCH_RECV = "switch-recv"
TPP_EXEC = "tpp-exec"
DROP = "drop"
FAULT = "fault"

#: Kinds that end a packet's journey.
_TERMINAL_KINDS = (DELIVER, DROP)
_EXECUTED = InstructionStatus.EXECUTED
_FAILED_CONDITION = InstructionStatus.FAILED_CONDITION
_SKIPPED_PACKET_FULL = InstructionStatus.SKIPPED_PACKET_FULL
_SKIPPED_WRITE_DISABLED = InstructionStatus.SKIPPED_WRITE_DISABLED


def _exec_outcome(statuses: list[InstructionStatus]) -> tuple[str, int]:
    """A ``tpp-exec`` record's ``(label, executed count)`` for one hop.

    The label names the worst outcome: ``halted`` (a CSTORE or CEXEC
    failed, §3.3.3), ``out-of-room`` (packet memory ran out), then
    ``write-disabled`` (a store suppressed by the §4.3 knob), else ``ok``.
    The count includes the failed condition that halted the hop.
    """
    executed = statuses.count(_EXECUTED)
    if _FAILED_CONDITION in statuses:
        return "halted", executed + 1
    if _SKIPPED_PACKET_FULL in statuses:
        return "out-of-room", executed
    if _SKIPPED_WRITE_DISABLED in statuses:
        return "write-disabled", executed
    return "ok", executed


def _flow_hash(flow_id: int) -> int:
    """A stable (cross-process, cross-run) 32-bit hash of a flow id.

    Python's builtin ``hash`` is salted for strings and identity for small
    ints; neither gives a uniform, process-stable 1-in-N split, so the
    sampler hashes the flow id's bytes instead.
    """
    raw = flow_id.to_bytes(16, "little", signed=True)
    return int.from_bytes(hashlib.blake2b(raw, digest_size=4).digest(),
                          "little")


@dataclass(frozen=True)
class RecorderSpec:
    """The flight-recorder policy a scenario declares (picklable).

    Args:
        capacity: per-node ring-buffer size in records; the oldest record
            is overwritten (and counted) when a node's ring is full.
        sample_every: record 1 in N flows, chosen by a stable hash of the
            flow id — all packets of a sampled flow are recorded at every
            hop, packets of unsampled flows only at drop sites.  ``1``
            records every flow.
        apps: record only packets carrying a TPP that belongs to one of
            these application names (resolved to app ids at attach time).
            ``None`` records everything, TPP-less packets included.
        links: tap only ports attached to these link names (port-level
            events — enqueue/dequeue/deliver/drops — elsewhere are not
            recorded; node-level events are unaffected).  ``None`` taps
            every port.
    """

    capacity: int = 4096
    sample_every: int = 1
    apps: Optional[tuple[str, ...]] = None
    links: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        check_count("recorder capacity", self.capacity)
        check_count("sample_every", self.sample_every)
        for name, value in (("apps", self.apps), ("links", self.links)):
            if value is not None:
                if isinstance(value, str):
                    raise ValueError(f"{name} must be a sequence of names, "
                                     f"not a bare string")
                object.__setattr__(self, name, tuple(value))
                if not getattr(self, name):
                    raise ValueError(f"{name} filter cannot be empty; "
                                     f"use None to record everything")


@dataclass
class PacketJourney:
    """One packet's ordered lifecycle records (the answer to "what
    happened to packet N?")."""

    packet_id: int
    flow_id: int
    records: list[tuple]

    @property
    def hops(self) -> list[str]:
        """Node names in first-visit order."""
        seen: list[str] = []
        for record in self.records:
            if not seen or seen[-1] != record[REC_NODE]:
                seen.append(record[REC_NODE])
        return seen

    @property
    def terminal(self) -> Optional[tuple]:
        """The journey's last terminal record (deliver or drop), if any."""
        for record in reversed(self.records):
            if record[REC_KIND] in _TERMINAL_KINDS:
                return record
        return None

    @property
    def dropped(self) -> bool:
        terminal = self.terminal
        return terminal is not None and terminal[REC_KIND] == DROP

    @property
    def delivered(self) -> bool:
        terminal = self.terminal
        return terminal is not None and terminal[REC_KIND] == DELIVER

    @property
    def drop_reason(self) -> Optional[str]:
        terminal = self.terminal
        if terminal is not None and terminal[REC_KIND] == DROP:
            return terminal[REC_B]
        return None

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fate = "dropped" if self.dropped else \
            ("delivered" if self.delivered else "in-flight")
        return (f"<PacketJourney #{self.packet_id} flow={self.flow_id} "
                f"{len(self.records)} records via {self.hops} {fate}>")


@dataclass
class DropExplanation:
    """Why one packet died: its hop records plus the terminal drop."""

    packet_id: int
    flow_id: int
    time: float
    site: str                      # port/switch name where the drop landed
    category: str                  # canonical category (repro.net.port.DROP_*)
    reason: str                    # the human-readable drop_reason string
    records: list[tuple]           # the packet's ordered records, drop last
    fault_context: Optional[tuple] = None   # latest FAULT on the site's link

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DropExplanation #{self.packet_id} {self.category!r} at "
                f"{self.site} t={self.time:.6f} after "
                f"{len(self.records) - 1} hops>")


class JourneyLog:
    """A picklable, queryable snapshot of recorded flight records.

    Built by :meth:`FlightRecorder.log` (and shipped on
    :class:`~repro.session.ResultSummary.flightrec`); holds plain tuples,
    the recorder's counters and the tapped ports' link names, so it
    pickles across process boundaries and the query API works identically
    in a sweep parent.
    """

    def __init__(self, records: list[tuple], stats: dict,
                 links: Optional[dict[str, str]] = None) -> None:
        self.records = records                     # sorted by seq
        self.stats = stats
        self.links = links if links is not None else {}   # port -> link name
        self._by_packet: Optional[dict[int, list[tuple]]] = None

    # ------------------------------------------------------------- indexing
    def _packet_index(self) -> dict[int, list[tuple]]:
        if self._by_packet is None:
            index: dict[int, list[tuple]] = {}
            for record in self.records:
                index.setdefault(record[REC_PACKET], []).append(record)
            self._by_packet = index
        return self._by_packet

    def __getstate__(self) -> dict:
        return {"records": self.records, "stats": self.stats,
                "links": self.links}

    def __setstate__(self, state: dict) -> None:
        self.records = state["records"]
        self.stats = state["stats"]
        self.links = state["links"]
        self._by_packet = None

    def __len__(self) -> int:
        return len(self.records)

    # -------------------------------------------------------------- queries
    def journey(self, packet_id: int) -> Optional[PacketJourney]:
        """The ordered lifecycle of one packet, or None if never recorded."""
        records = self._packet_index().get(packet_id)
        if not records:
            return None
        return PacketJourney(packet_id=packet_id,
                             flow_id=records[0][REC_FLOW],
                             records=list(records))

    def trace_flow(self, flow_id: int) -> list[PacketJourney]:
        """Every recorded packet of one flow, in first-record order."""
        journeys: dict[int, list[tuple]] = {}
        for record in self.records:
            if record[REC_FLOW] == flow_id and record[REC_KIND] != FAULT:
                journeys.setdefault(record[REC_PACKET], []).append(record)
        return [PacketJourney(packet_id=pid, flow_id=flow_id, records=recs)
                for pid, recs in sorted(journeys.items(),
                                        key=lambda kv: kv[1][0][REC_SEQ])]

    def drops(self) -> list[tuple]:
        """Every recorded drop record, in seq order."""
        return [record for record in self.records
                if record[REC_KIND] == DROP]

    def explain_drop(self, packet_id: Optional[int] = None, *,
                     category: Optional[str] = None,
                     site: Optional[str] = None):
        """Drop forensics: ordered hop records plus the terminal reason.

        With ``packet_id``, returns one :class:`DropExplanation` (or
        ``None`` when that packet was not recorded as dropped).  Without,
        returns the list of explanations for every recorded drop,
        optionally filtered by canonical ``category`` (e.g.
        ``"queue-overflow"``) and/or ``site`` substring.
        """
        if packet_id is not None:
            journey = self.journey(packet_id)
            if journey is None or not journey.dropped:
                return None
            return self._explain(journey)
        explanations = []
        for record in self.drops():
            if category is not None and record[REC_A] != category:
                continue
            if site is not None and site not in record[REC_SITE]:
                continue
            journey = self.journey(record[REC_PACKET])
            if journey is not None and journey.dropped:
                explanations.append(self._explain(journey))
        return explanations

    def _explain(self, journey: PacketJourney) -> DropExplanation:
        terminal = journey.terminal
        # A fault on a link is context for drops at either of its ports;
        # a switch (pipeline) drop site has no link of its own.
        link = self.links.get(terminal[REC_SITE])
        fault = None
        for record in self.records:            # seq order: keep the latest
            if record[REC_SEQ] > terminal[REC_SEQ]:
                break
            if record[REC_KIND] == FAULT and record[REC_SITE] == link:
                fault = record
        return DropExplanation(
            packet_id=journey.packet_id, flow_id=journey.flow_id,
            time=terminal[REC_TIME], site=terminal[REC_SITE],
            category=terminal[REC_A], reason=terminal[REC_B],
            records=list(journey.records), fault_context=fault)

    def packets(self) -> list[int]:
        """Every recorded packet id, in first-record order."""
        seen: dict[int, None] = {}
        for record in self.records:
            if record[REC_KIND] != FAULT:
                seen.setdefault(record[REC_PACKET])
        return list(seen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<JourneyLog {len(self.records)} records, "
                f"{len(self._packet_index())} packets>")


class FlightRecorder:
    """The live recorder: per-node rings fed by the dataplane hook sites.

    Create one from a :class:`RecorderSpec`, then :meth:`attach` it to a
    built :class:`~repro.net.topology.Network` (or :meth:`attach_nodes`
    for hand-built micro-topologies).  Detach by never attaching — the
    dataplane's ``recorder`` attributes default to ``None`` and the hook
    sites cost a single attribute check when unset.
    """

    def __init__(self, spec: Optional[RecorderSpec] = None) -> None:
        self.spec = spec if spec is not None else RecorderSpec()
        self._sim: Optional["Simulator"] = None
        # Per-node rings; a node's first record creates its ring (fault
        # records too, under a port_a node that was never attached).
        self._rings: defaultdict[str, deque] = defaultdict(
            partial(deque, maxlen=self.spec.capacity))
        # The last seq handed out: every record takes one, so this is also
        # the number of records written.
        self._seq = 0
        # Sampling state: app-name filter resolved to app ids at attach,
        # flow pass/fail memoised per flow id (one blake2b per flow, ever).
        self._app_ids: Optional[frozenset[int]] = None
        self._sample_every = self.spec.sample_every
        self._flow_pass_memo: dict[int, bool] = {}
        # Whether any filter applies; set at attach, so an unfiltered
        # recorder never calls _wants.
        self._filtered = False
        # Tapped port name -> its link's name: fault context by identity.
        self._port_links: dict[str, str] = {}
        # Accounting.
        self.drop_counts: dict[str, int] = {}
        self.nodes_attached = 0
        self.ports_tapped = 0

    # ------------------------------------------------------------ attachment
    def attach(self, network: "Network",
               app_ids: Optional[Iterable[int]] = None) -> "FlightRecorder":
        """Install this recorder on every node/port/link of a network.

        ``app_ids`` are the resolved application ids for the spec's
        ``apps`` filter (the session layer resolves names to ids after TPP
        deployment); with an ``apps`` filter and no ids the filter matches
        nothing, which is the right failure mode for a typo'd app name.
        """
        if app_ids is not None:
            self._app_ids = frozenset(app_ids)
        return self.attach_nodes(network.sim, network.nodes.values())

    def attach_nodes(self, sim: "Simulator",
                     nodes: Iterable["Node"]) -> "FlightRecorder":
        """Lower-level attach for hand-built topologies (tests, tools).

        Raises ``ValueError`` when the spec's ``links`` filter names a link
        that none of ``nodes``' ports is attached to.
        """
        self._sim = sim
        tap_links = self.spec.links
        seen_links: set[str] = set()
        for node in nodes:
            node.recorder = self
            self.nodes_attached += 1
            for port in node.ports:
                link = port.link
                if link is not None:
                    seen_links.add(link.name)
                if tap_links is not None:
                    if link is None or link.name not in tap_links:
                        continue
                port.recorder = self
                self.ports_tapped += 1
                if link is not None:
                    link.recorder = self       # fault context on tapped links
                    self._port_links[port.name] = link.name
        if tap_links is not None:
            unknown = [name for name in tap_links if name not in seen_links]
            if unknown:
                raise ValueError(f"flight recorder taps links {unknown}, "
                                 f"which do not exist; have "
                                 f"{sorted(seen_links)}")
        if self.spec.apps is not None and self._app_ids is None:
            self._app_ids = frozenset()
        self._filtered = self._sample_every > 1 or self._app_ids is not None
        return self

    # --------------------------------------------------------------- filters
    def _wants(self, packet: "Packet") -> bool:
        # One flat function, no helper calls: with a filter set this runs
        # for every packet at every hook site, and on the dominant
        # unsampled-flow path its cost IS the recorder's overhead.
        if self._sample_every > 1:
            flow_id = packet.flow_id
            memo = self._flow_pass_memo
            passed = memo.get(flow_id)
            if passed is None:
                passed = memo[flow_id] = \
                    _flow_hash(flow_id) % self._sample_every == 0
            if not passed:
                return False
        if self._app_ids is not None:
            tpp = packet.tpp
            return tpp is not None and tpp.app_id in self._app_ids
        return True

    # --------------------------------------------------------------- writing
    def _put(self, node: str, kind: str, packet: "Packet", site: str,
             a, b) -> None:
        """Append one record of ``packet`` to ``node``'s ring."""
        self._seq = seq = self._seq + 1
        self._rings[node].append((seq, self._sim.now, node, kind,
                                  packet.packet_id, packet.flow_id, site,
                                  a, b))

    # ------------------------------------------------------------ hook sites
    # Each is called from exactly one dataplane site, behind the caller's
    # ``recorder is not None`` guard.  A record costs the hook call and one
    # _put call; an unwanted packet costs the hook call and one _wants call.
    def on_host_send(self, host: "Host", packet: "Packet") -> None:
        if self._filtered and not self._wants(packet):
            return
        name = host.name
        self._put(name, HOST_SEND, packet, name, packet.size, packet.dst)

    def on_enqueue(self, port: "Port", packet: "Packet") -> None:
        if self._filtered and not self._wants(packet):
            return
        self._put(port.node.name, ENQUEUE, packet, port.name,
                  port.occupancy_packets, port.occupancy_bytes)

    def on_dequeue(self, port: "Port", packet: "Packet") -> None:
        if self._filtered and not self._wants(packet):
            return
        self._put(port.node.name, DEQUEUE, packet, port.name,
                  port.occupancy_packets, port.occupancy_bytes)

    def on_pass_through(self, port: "Port", packet: "Packet") -> None:
        """A packet sent to an idle port: it enters the empty queue and
        leaves it for the transmitter at once.

        Writes the ``enqueue`` (1 packet, ``size`` bytes) and ``dequeue``
        (0, 0) records a busy port would, with consecutive seqs.
        """
        if self._filtered and not self._wants(packet):
            return
        seq = self._seq
        self._seq = seq + 2
        node, now, packet_id, flow_id, site = (
            port.node.name, self._sim.now, packet.packet_id, packet.flow_id,
            port.name)
        ring = self._rings[node]
        ring.append((seq + 1, now, node, ENQUEUE, packet_id, flow_id, site,
                     1, packet.size))
        ring.append((seq + 2, now, node, DEQUEUE, packet_id, flow_id, site,
                     0, 0))

    def on_deliver(self, rx_port: "Port", packet: "Packet") -> None:
        if self._filtered and not self._wants(packet):
            return
        link = rx_port.link
        self._put(rx_port.node.name, DELIVER, packet, rx_port.name,
                  packet.size, link.name if link is not None else "")

    def on_switch_recv(self, switch: "TPPSwitch", packet: "Packet",
                       in_index: int) -> None:
        if self._filtered and not self._wants(packet):
            return
        name = switch.name
        self._put(name, SWITCH_RECV, packet, name, in_index, packet.size)

    def on_tpp_exec(self, switch: "TPPSwitch", packet: "Packet",
                    statuses: list[InstructionStatus]) -> None:
        if self._filtered and not self._wants(packet):
            return
        label, executed = _exec_outcome(statuses)
        name = switch.name
        self._put(name, TPP_EXEC, packet, name, label, executed)

    def on_drop(self, site: str, node: str, packet: "Packet",
                category: str, reason: str) -> None:
        """One packet died at ``site`` (a port or switch name).

        Drop records bypass flow sampling — the forensic log stays
        complete under aggressive sampling — but honour the app filter.
        """
        app_ids = self._app_ids
        if app_ids is not None:
            tpp = packet.tpp
            if tpp is None or tpp.app_id not in app_ids:
                return
        self._put(node, DROP, packet, site, category, reason)
        self.drop_counts[category] = self.drop_counts.get(category, 0) + 1

    def on_fault(self, link: "Link", action: str, detail=None) -> None:
        """A link state change (set_down / set_up / set_loss / clear_loss).

        Recorded under the link's ``port_a`` node so fault context rides
        the same rings; ``explain_drop`` surfaces the latest preceding
        fault on the drop site's link as ``fault_context``.
        """
        if self._sim is None:       # links attach before sim in odd setups
            return
        node = link.port_a.node.name
        self._seq = seq = self._seq + 1
        self._rings[node].append((seq, self._sim.now, node, FAULT, 0, 0,
                                  link.name, action, detail))

    # ------------------------------------------------------------- snapshots
    def stats(self) -> dict:
        """Picklable accounting counters (the result's side channel).

        Each append to a full ring evicts exactly one record, so the
        overwrites are the records written less those retained.
        """
        retained = sum(len(ring) for ring in self._rings.values())
        return {
            "records_written": self._seq,
            "records_overwritten": self._seq - retained,
            "records_retained": retained,
            "drops_recorded": sum(self.drop_counts.values()),
            "drop_counts": dict(sorted(self.drop_counts.items())),
            "nodes_attached": self.nodes_attached,
            "ports_tapped": self.ports_tapped,
            "capacity": self.spec.capacity,
            "sample_every": self._sample_every,
            "flows_seen": len(self._flow_pass_memo) if self._sample_every > 1
            else None,
            "flows_sampled": sum(self._flow_pass_memo.values())
            if self._sample_every > 1 else None,
        }

    def log(self) -> JourneyLog:
        """A picklable snapshot of everything currently retained."""
        merged: list[tuple] = []
        for ring in self._rings.values():
            merged.extend(ring)
        merged.sort(key=itemgetter(REC_SEQ))       # seq is unique
        return JourneyLog(merged, self.stats(), dict(self._port_links))

    # Convenience: query the live rings without an explicit snapshot.
    def journey(self, packet_id: int) -> Optional[PacketJourney]:
        return self.log().journey(packet_id)

    def trace_flow(self, flow_id: int) -> list[PacketJourney]:
        return self.log().trace_flow(flow_id)

    def explain_drop(self, packet_id: Optional[int] = None, **filters):
        return self.log().explain_drop(packet_id, **filters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (f"<FlightRecorder {stats['records_written']} written "
                f"({stats['records_overwritten']} overwritten) over "
                f"{len(self._rings)} nodes>")
