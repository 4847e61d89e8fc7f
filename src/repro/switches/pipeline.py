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

One lookup per table
--------------------

Each stage's :class:`~repro.switches.tables.FlowTable` looks a packet up
through its exact-match index (one dict probe per group of match fields),
so a lookup costs the same whether the table holds one route or a fat
tree's thousand, and there is no same-flow memo to keep in step: every
packet counts ``[Stage$i:LookupPackets]`` and its entry's statistics the
way a scan of the table would.
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


class Pipeline:
    """A sequence of match-action stages."""

    def __init__(self, num_stages: int = 4, name: str = "ingress") -> None:
        if num_stages < 1:
            raise ValueError("a pipeline needs at least one stage")
        self.name = name
        self.stages = [Stage(index=i, table=FlowTable(name=f"{name}-stage{i}"))
                       for i in range(num_stages)]

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

    def process(self, packet: Packet) -> tuple[Optional[FlowEntry], Optional[int]]:
        """Run the packet through the stages: the first match decides
        forwarding.  Returns ``(entry, stage index)``, or ``(None, None)``."""
        for stage in self.stages:
            table = stage.table
            if table.entries:
                entry = table.lookup(packet)
                if entry is not None:
                    return entry, stage.index
        return None, None
