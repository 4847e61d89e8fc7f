"""The abstract ingress/egress match-action pipeline (Figure 6).

A :class:`Pipeline` is a list of :class:`Stage` objects.  Each stage owns a
flow table (which the memory map exposes as ``Stage$i:``) and eight
application-specific registers (``Stage$i:Reg0..Reg7``), mirroring the
NetFPGA prototype's "64 kbit block RAM and 8 registers at each stage".

The functional simulator collapses the per-stage TCPU execution units into a
single sequential pass (the reordering freedom of §3.5 only matters for
hardware latency, which :mod:`repro.hardware.latency_model` accounts for
separately), but the stage structure is real: forwarding happens in the first
stage that produces a match, and the matched stage index is recorded in the
packet's metadata so TPPs can read it.

Same-flow lookup memo
---------------------

Traffic is bursty, and consecutive packets at a switch usually belong to the
same flow.  :class:`FlowLookupCache` memoizes the last forwarding decision
keyed by the packet's flow identity and replays the per-table statistics
updates a real lookup would have made, so same-flow runs skip the
match-action scan entirely.  The cache only engages while *every* installed
entry matches on flow-identity fields (the common case — routes match on
``dst``); any entry matching on another attribute, or any table mutation,
disables or invalidates it, so results are always identical to
:meth:`Pipeline.process`.  :meth:`TPPSwitch.receive
<repro.switches.switch.TPPSwitch.receive>` looks every packet up through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.net.packet import Packet

from .tables import FlowEntry, FlowTable


@dataclass
class Stage:
    """One match-action stage: a flow table plus app-specific registers."""

    index: int
    table: FlowTable
    registers: list[int] = field(default_factory=lambda: [0] * 8)

    def read_register(self, reg: int) -> Optional[int]:
        if 0 <= reg < len(self.registers):
            return self.registers[reg]
        return None

    def write_register(self, reg: int, value: int) -> bool:
        if 0 <= reg < len(self.registers):
            self.registers[reg] = value
            return True
        return False


@dataclass
class PipelineResult:
    """Outcome of running a packet through the ingress pipeline."""

    action: str                      # "forward" | "group" | "drop" | "no_match"
    output_port: Optional[int] = None
    group_id: Optional[int] = None
    matched_entry: Optional[FlowEntry] = None
    matched_stage: int = 0


class Pipeline:
    """A sequence of match-action stages."""

    def __init__(self, num_stages: int = 4, name: str = "ingress") -> None:
        if num_stages < 1:
            raise ValueError("a pipeline needs at least one stage")
        self.name = name
        self.stages = [Stage(index=i, table=FlowTable(name=f"{name}-stage{i}"))
                       for i in range(num_stages)]
        # One shared mutation cell across every stage table: flow-lookup
        # memos detect any install/remove by reading a single integer.
        self.generation: list[int] = [0]
        for stage in self.stages:
            stage.table.generation = self.generation

    def __len__(self) -> int:
        return len(self.stages)

    def stage(self, index: int) -> Optional[Stage]:
        if 0 <= index < len(self.stages):
            return self.stages[index]
        return None

    @property
    def forwarding_table(self) -> FlowTable:
        """The table routing entries are installed into (stage 0 by convention)."""
        return self.stages[0].table

    def process(self, packet: Packet) -> PipelineResult:
        """Run the packet through the stages; first match decides forwarding."""
        for stage in self.stages:
            if not stage.table.entries:
                continue
            entry = stage.table.lookup(packet)
            if entry is None:
                continue
            if entry.action == "drop":
                return PipelineResult(action="drop", matched_entry=entry,
                                      matched_stage=stage.index)
            if entry.action == "group":
                return PipelineResult(action="group", group_id=entry.group_id,
                                      matched_entry=entry, matched_stage=stage.index)
            return PipelineResult(action="forward", output_port=entry.output_port,
                                  matched_entry=entry, matched_stage=stage.index)
        return PipelineResult(action="no_match")

    def lookup_cache(self) -> "FlowLookupCache":
        """A fresh same-flow memoizing view of this pipeline (see module docs)."""
        return FlowLookupCache(self)


#: Packet attributes that together identify a flow for memoization purposes —
#: the field-name view of :meth:`repro.net.packet.Packet.flow_key`.  An
#: installed entry is "flow-keyed" when every field it matches on is in this
#: set; only then can a decision be replayed for an identical key.
FLOW_KEY_FIELDS = frozenset(
    {"src", "dst", "protocol", "sport", "dport", "vlan", "flow_id"})


class FlowLookupCache:
    """Memoizes forwarding decisions keyed by the packet's flow identity.

    Semantics-preserving by construction: the memo only engages while every
    entry in the pipeline matches exclusively on :data:`FLOW_KEY_FIELDS`
    (re-checked, and the memo dropped, whenever any table's shared
    generation cell moves), and a replayed decision re-applies the same
    lookup/match statistics the skipped scan would have counted, so TPPs
    reading ``[Stage$i:LookupPackets]`` observe identical values either way.
    """

    #: Bound on distinct memoized flows; the memo is cleared wholesale when
    #: exceeded (flow populations in the reproduced experiments are small).
    MEMO_LIMIT = 4096

    __slots__ = ("pipeline", "_generation_cell", "_generation", "_memo")

    def __init__(self, pipeline: Pipeline) -> None:
        self.pipeline = pipeline
        self._generation_cell = pipeline.generation
        self._generation: Optional[int] = None
        # flow key -> (PipelineResult, the StatsBlocks a lookup counts into);
        # None while some entry matches on a field outside the flow key.
        self._memo: Optional[dict[tuple, tuple]] = None

    def process(self, packet: Packet) -> PipelineResult:
        if self._generation_cell[0] != self._generation:
            self._revalidate()
        memo = self._memo
        if memo is None:
            return self.pipeline.process(packet)
        key = packet.flow_key()
        hit = memo.get(key)
        if hit is not None:
            result, blocks = hit
            size = packet.size
            for block in blocks:
                block.packets += 1
                block.bytes += size
            return result
        result = self.pipeline.process(packet)
        stages = self.pipeline.stages
        entry = result.matched_entry
        # Every table the scan consulted counts a lookup; the matched entry
        # and its table count a match.
        searched = stages if entry is None else stages[:result.matched_stage + 1]
        blocks = [stage.table.lookup_stats for stage in searched if stage.table.entries]
        if entry is not None:
            blocks += (entry.stats, stages[result.matched_stage].table.match_stats)
        if len(memo) >= self.MEMO_LIMIT:
            memo.clear()
        memo[key] = (result, tuple(blocks))
        return result

    def _revalidate(self) -> None:
        """A table changed: drop the memo and re-check that it may engage."""
        self._generation = self._generation_cell[0]
        safe = all(FLOW_KEY_FIELDS.issuperset(entry.match)
                   for stage in self.pipeline.stages
                   for entry in stage.table.entries)
        self._memo = {} if safe else None
