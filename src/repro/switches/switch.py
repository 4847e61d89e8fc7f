"""The TPP-capable switch.

:class:`TPPSwitch` glues the substrate together: packets arriving on a port
run through the ingress match-action pipeline (forwarding decision), the
per-packet context is assembled, the embedded TCPU executes any attached TPP
against the switch's memory map, and the packet is queued on its output port.

This mirrors the execution point the paper's hardware uses: TPP instructions
execute inside the ingress/egress pipeline *after* the forwarding decision,
so reads observe the packet-consistent values (§3.2) — e.g.
``[PacketMetadata:OutputPort]`` is the port the packet really leaves on and
``[Queue:QueueOccupancy]`` is the occupancy of that port's queue at the
moment this packet is enqueued behind it.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.tcpu import InstructionStatus, PacketContext, TCPU
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.port import DROP_PIPELINE, DROP_QUEUE_OVERFLOW, Port, drop
from repro.net.sim import Simulator

from .counters import PortStats
from .memory import SwitchMemory
from .pipeline import Pipeline
from .tables import FlowEntry, Group, GroupTable

#: How often switches refresh link utilisation counters (§2.2: every millisecond).
DEFAULT_UTILIZATION_INTERVAL_S = 1e-3

#: Most nodes a packet may visit, source host included (IPv4's default TTL).
#: Shortest-path routes cannot loop a packet; a TPP's ``OutputPort`` write
#: can, so only a hop whose TPP redirected the packet checks it.
HOP_LIMIT = 64

# Bound once: read on every TPP hop (see repro.core.tcpu).
_SKIPPED_PACKET_FULL = InstructionStatus.SKIPPED_PACKET_FULL


class TPPSwitch(Node):
    """A switch that forwards packets and executes TPPs at line rate."""

    def __init__(self, sim: Simulator, name: str, switch_id: int,
                 num_stages: int = 4,
                 tpp_enabled: bool = True,
                 write_enabled: bool = True,
                 compile_traces: bool = False,
                 forwarding_latency_s: float = 0.0,
                 utilization_interval_s: float = DEFAULT_UTILIZATION_INTERVAL_S,
                 utilization_ewma_alpha: float = 0.0,
                 vendor_id: int = 0xACE1,
                 clock_hz: float = 1e9) -> None:
        super().__init__(sim, name)
        # Each knob against its range (NaN fails every comparison).
        for knob, value, ok in (
                ("forwarding_latency_s", forwarding_latency_s,
                 0 <= forwarding_latency_s < math.inf),
                ("utilization_interval_s", utilization_interval_s,
                 0 < utilization_interval_s < math.inf),
                ("utilization_ewma_alpha", utilization_ewma_alpha,
                 0 <= utilization_ewma_alpha <= 1),
                ("clock_hz", clock_hz, 0 < clock_hz < math.inf)):
            if not ok:
                raise ValueError(f"switch {name}: {knob} out of range, got {value!r}")
        self.switch_id = switch_id
        self.vendor_id = vendor_id
        self.clock_hz = clock_hz
        self.tpp_enabled = tpp_enabled
        self.forwarding_latency_s = forwarding_latency_s
        self.utilization_interval_s = utilization_interval_s
        self.utilization_ewma_alpha = utilization_ewma_alpha

        self.pipeline = Pipeline(num_stages=num_stages)
        self.group_table = GroupTable()
        self.memory = SwitchMemory(self)
        # compile_traces selects the compiled-trace TCPU engine (see
        # repro.core.trace); it may also be toggled later through the
        # ``compile_traces`` property — the Scenario layer does exactly that.
        self.tcpu = TCPU(write_enabled=write_enabled, compile_traces=compile_traces)
        # The one PacketContext every TPP hop refills: nothing between the
        # refill and the hop's last read of it can re-enter receive, and no
        # caller keeps it past the hop.
        self._context = PacketContext()
        self.port_stats: list[PortStats] = []
        # Same-flow forwarding memo (semantics-preserving; see pipeline docs).
        self._lookup_cache = self.pipeline.lookup_cache()

        # Aggregate counters.
        self.packets_forwarded = 0
        # This switch's drop ledger (see repro.net.port.drop): its pipeline
        # drops, packets and bytes, under DROP_PIPELINE.
        self.drops_by_reason: dict[str, int] = {}
        self.drop_bytes_by_reason: dict[str, int] = {}
        self.tpp_packets_seen = 0
        # TPP hops where an instruction was skipped with SKIPPED_PACKET_FULL
        # (§3.3: the packet ran out of memory at *this* switch).  The end
        # host sees the same signal as TPP.out_of_room / tpps_truncated.
        self.tpps_packet_full = 0

        self._stats_process = sim.schedule_periodic(utilization_interval_s,
                                                    self._update_port_stats)

    # ------------------------------------------------------------------ ports
    def add_port(self, queue_capacity_bytes: int = 512 * 1024,
                 queue_capacity_packets: Optional[int] = None) -> Port:
        port = super().add_port(queue_capacity_bytes, queue_capacity_packets)
        self.port_stats.append(PortStats())
        return port

    def link_id(self, port_index: int) -> int:
        """Globally-unique-ish link identifier exposed as ``[Link:ID]``."""
        return (self.switch_id * 64 + port_index) & 0xFFFF

    @property
    def compile_traces(self) -> bool:
        """Whether this switch's TCPU runs compiled per-program traces."""
        return self.tcpu.compile_traces

    @compile_traces.setter
    def compile_traces(self, enabled: bool) -> None:
        self.tcpu.compile_traces = enabled

    @property
    def forwarding_version(self) -> int:
        """A switch-wide forwarding-state generation number."""
        return sum(stage.table.version for stage in self.pipeline.stages)

    # ----------------------------------------------------------- provisioning
    def install_route(self, dst: str, output_port: int, priority: int = 0,
                      stage: int = 0) -> FlowEntry:
        """Install an exact-match forwarding entry for destination ``dst``."""
        entry = FlowEntry(match={"dst": dst}, action="forward", output_port=output_port,
                          priority=priority, installed_at=self.sim.now)
        return self.pipeline.stages[stage].table.install(entry)

    def install_group_route(self, dst: str, group_id: int, priority: int = 0,
                            stage: int = 0) -> FlowEntry:
        """Install a forwarding entry that resolves through a multipath group."""
        if group_id not in self.group_table:
            raise KeyError(f"group {group_id} must be installed before routes reference it")
        entry = FlowEntry(match={"dst": dst}, action="group", group_id=group_id,
                          priority=priority, installed_at=self.sim.now)
        return self.pipeline.stages[stage].table.install(entry)

    def install_group(self, group_id: int, ports: list[int], policy: str = "hash",
                      salt: int = 0) -> Group:
        """Install a multipath group (ECMP hash, VLAN-selected, or dport-selected)."""
        group = Group(group_id=group_id, ports=list(ports), policy=policy, salt=salt)
        self.group_table.install(group)
        return group

    # ------------------------------------------------------------- forwarding
    def receive(self, packet: Packet, in_port: Port) -> None:
        in_index = in_port.index
        packet.path.append(self.name)          # Packet.record_hop, inlined
        if self.recorder is not None:
            self.recorder.on_switch_recv(self, packet, in_index)
        result = self._lookup_cache.process(packet)

        action = result.action
        if action == "forward":
            output_port = result.output_port
        elif action == "group":
            output_port = self.group_table.select(result.group_id, packet)
        else:
            drop(self, self.name, packet, DROP_PIPELINE, f"{action} at {self.name}")
            return
        if output_port is None or not 0 <= output_port < len(self.ports):
            drop(self, self.name, packet, DROP_PIPELINE,
                 f"invalid output port at {self.name}")
            return

        tpp = packet.tpp
        if tpp is not None and self.tpp_enabled:
            self.tpp_packets_seen += 1
            # The switch's one context is refilled, every field (Tables 7/8),
            # only on hops where a TPP will read it; a bare packet pays
            # nothing for the TCPU.
            entry = result.matched_entry
            context = self._context
            context.input_port, context.output_port, context.output_queue = in_index, output_port, 0
            context.matched_entry_id, context.matched_entry_version = \
                (entry.entry_id, entry.version) if entry else (0, 0)
            context.matched_stage, context.hop_number, context.path_id = \
                result.matched_stage, tpp.hop_number, packet.vlan
            context.packet_length, context.arrival_time = packet.size, self.sim.now
            statuses = self.tcpu.execute_program(tpp, self.memory, context)
            if _SKIPPED_PACKET_FULL in statuses:
                self.tpps_packet_full += 1
            if self.recorder is not None:
                self.recorder.on_tpp_exec(self, packet, statuses)
            tpp.hop_number += 1                  # TPP.advance_hop, inlined
            # A TPP may have rewritten the packet's output port (Table 2
            # marks it writable); honour the redirection.
            if context.output_port != output_port:
                output_port = context.output_port
                if len(packet.path) > HOP_LIMIT:
                    drop(self, self.name, packet, DROP_PIPELINE,
                         f"hop limit at {self.name}")
                    return
            # Reflective TPPs (§4.4): the target switch turns the probe
            # around so the sender gets its answer in half a round trip.
            if (packet.metadata.get("tpp_reflect_switch") == self.switch_id
                    and not packet.metadata.get("tpp_reflected")):
                packet.metadata["tpp_reflected"] = True
                packet.src, packet.dst = packet.dst, packet.src
                reflected = self.pipeline.process(packet)
                if reflected.action == "group":
                    output_port = self.group_table.select(reflected.group_id, packet)
                else:
                    output_port = (reflected.output_port
                                   if reflected.action == "forward" else None)
                if output_port is None or not 0 <= output_port < len(self.ports):
                    drop(self, self.name, packet, DROP_PIPELINE,
                         f"no return route at {self.name}")
                    return

        self.packets_forwarded += 1
        if self.forwarding_latency_s > 0:
            self.sim.post(self.forwarding_latency_s, self._enqueue, packet, output_port)
        else:
            self.ports[output_port].send(packet)

    def _enqueue(self, packet: Packet, output_port: int) -> None:
        self.ports[output_port].send(packet)

    # ------------------------------------------------------------- statistics
    @property
    def packets_dropped(self) -> int:
        """Pipeline drops plus this switch's ports' queue overflows.

        Link-down drops at its ports are not included.
        """
        return self.drops_by_reason.get(DROP_PIPELINE, 0) + sum(
            port.drops_by_reason.get(DROP_QUEUE_OVERFLOW, 0) for port in self.ports)

    def counters(self) -> dict[str, int]:
        """This switch's aggregate packet accounting (``switch.<name>``)."""
        return {
            "packets_forwarded": self.packets_forwarded,
            "packets_dropped": self.packets_dropped,
            "tpp_packets_seen": self.tpp_packets_seen,
            "tpps_packet_full": self.tpps_packet_full,
        }

    def _update_port_stats(self) -> None:
        """Refresh per-port rates/utilisation from the raw port counters."""
        for port, stats in zip(self.ports, self.port_stats):
            stats.transmit.packets = port.tx_packets
            stats.transmit.bytes = port.tx_bytes
            stats.receive.packets = port.rx_packets
            stats.receive.bytes = port.rx_bytes
            capacity = port.link.rate_bps if port.link is not None else 0.0
            if capacity > 0:
                stats.update(self.utilization_interval_s, capacity,
                             self.utilization_ewma_alpha)

    def stop(self) -> None:
        """Stop the periodic statistics updater (used by tests/benchmarks)."""
        self._stats_process.stop()
