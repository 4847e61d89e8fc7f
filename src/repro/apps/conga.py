"""CONGA*: congestion-aware load balancing refactored to end-hosts (§2.4, Figure 4).

The network's only jobs are (a) executing TPPs and (b) offering multipath
routes selectable by a header tag (the VLAN id, via a group table).  Each
sending host then:

1. probes every path once per probing interval with a standalone TPP::

       PUSH [Link:ID]
       PUSH [Link:TX-Utilization]
       PUSH [Link:TX-Bytes]

   stamped with that path's tag, and has the receiver echo the executed TPP
   back;
2. aggregates the per-hop link utilisations into a per-path congestion metric
   (``max`` or ``sum`` over the switch-switch hops — the choice the paper
   notes can now be deferred to deployment time);
3. steers each of its flowlets onto the least congested path by rewriting the
   tag on that flowlet's packets.

Figure 4's example is reproduced by :func:`conga_scenario`: leaf L1
sends 120 % of a link's worth of traffic to L2 over two paths while L0 sends
50 % over its single path.  ECMP splits L1's flows evenly and saturates the
shared path; CONGA* shifts just enough traffic to the other path to meet both
demands with a maximum link utilisation of ~85 %.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.core.compiler import compile_tpp
from repro.core.packet_format import TPP
from repro.endhost import EndHostStack
from repro.net import RateLimitedFlow, ThroughputMeter, mbps
from repro.net.packet import Packet, tpp_probe_packet
from repro.session import ExperimentResult, Scenario
from repro.switches.counters import UTILIZATION_SCALE

PROBE_TPP_SOURCE = """
PUSH [Link:ID]
PUSH [Link:TX-Utilization]
PUSH [Link:TX-Bytes]
"""

PROBE_VALUES_PER_HOP = 3


@dataclass
class PathState:
    """Latest congestion information for one path tag."""

    tag: int
    metric: float = 0.0
    link_utilizations: list[float] = field(default_factory=list)
    updated_at: float = 0.0


class CongaController:
    """Per-host CONGA* agent: probes paths and steers flowlets.

    Args:
        stack: the sending host's end-host stack.
        dst: destination host name the controlled flows go to.
        path_tags: the tag values (VLAN ids) that select distinct paths.
        metric: "max" or "sum" aggregation of per-hop utilisation.
        probe_interval_s: how often each path is probed (§2.4 uses 1 ms).
        reselect_interval_s: how often each flow may switch paths (flowlet
            granularity; CBR flows have no natural flowlet gaps, so this
            models the flowlet boundary rate).
        hysteresis: a flow only moves when the best path is at least this much
            less utilised than its current one, avoiding oscillation.
    """

    def __init__(self, stack: EndHostStack, dst: str, path_tags: list[int],
                 metric: str = "max", probe_interval_s: float = 2e-3,
                 reselect_interval_s: float = 20e-3, hysteresis: float = 0.02,
                 edge_capacity_factor: float = 4.0) -> None:
        if metric not in ("max", "sum"):
            raise ValueError("metric must be 'max' or 'sum'")
        self.stack = stack
        self.dst = dst
        self.path_tags = list(path_tags)
        self.metric = metric
        self.probe_interval_s = probe_interval_s
        self.reselect_interval_s = reselect_interval_s
        self.hysteresis = hysteresis
        self.edge_capacity_factor = edge_capacity_factor
        self.paths: dict[int, PathState] = {tag: PathState(tag) for tag in path_tags}
        self.flows: list[RateLimitedFlow] = []
        self.probes_sent = 0
        self.probes_received = 0
        self.path_switches = 0

        self.app = stack.control_plane.register_application(f"conga@{stack.host.name}")
        stack.shim.bind_application(self.app.app_id, on_tpp=self._on_probe_echo)
        self._template = compile_tpp(PROBE_TPP_SOURCE, num_hops=8,
                                     app_id=self.app.app_id).tpp
        self._probe_process = stack.host.sim.schedule_periodic(probe_interval_s,
                                                               self._probe_all_paths)
        self._reselect_process = stack.host.sim.schedule_periodic(reselect_interval_s,
                                                                  self._reselect_paths)

    # ------------------------------------------------------------------ flows
    def manage_flow(self, flow: RateLimitedFlow) -> None:
        """Take over path selection for ``flow`` (its packets' tag field)."""
        self.flows.append(flow)

    def stop(self) -> None:
        self._probe_process.stop()
        self._reselect_process.stop()

    # ----------------------------------------------------------------- probing
    def _probe_all_paths(self) -> None:
        for tag in self.path_tags:
            probe = tpp_probe_packet(self.stack.host.name, self.dst,
                                     self._template.clone(), vlan=tag,
                                     created_at=self.stack.host.sim.now)
            probe.metadata["path_tag"] = tag
            self.probes_sent += 1
            self.stack.host.send(probe)

    def _on_probe_echo(self, tpp: TPP, packet: Packet) -> None:
        payload = packet.payload if isinstance(packet.payload, dict) else {}
        tag = payload.get("metadata", {}).get("path_tag", payload.get("original_vlan"))
        if tag is None or tag not in self.paths:
            return
        utilizations = []
        for hop in tpp.words_by_hop(PROBE_VALUES_PER_HOP)[:tpp.hop_number]:
            if len(hop) < PROBE_VALUES_PER_HOP:
                continue
            utilizations.append(hop[1] / UTILIZATION_SCALE)
        if not utilizations:
            return
        # Drop the generously-provisioned last hop (leaf to receiving host);
        # CONGA's metric is about the switch-switch fabric links.
        fabric = utilizations[:-1] if len(utilizations) > 1 else utilizations
        state = self.paths[tag]
        state.link_utilizations = fabric
        state.metric = max(fabric) if self.metric == "max" else sum(fabric)
        state.updated_at = self.stack.host.sim.now
        self.probes_received += 1

    # ------------------------------------------------------------ path choice
    def best_path(self) -> int:
        """The currently least congested path tag."""
        return min(self.paths.values(), key=lambda state: state.metric).tag

    def _reselect_paths(self) -> None:
        """Give each flow (flowlet) a chance to move to a less congested path."""
        if not self.flows:
            return
        for flow in self.flows:
            current = self.paths.get(flow.vlan)
            best = min(self.paths.values(), key=lambda state: state.metric)
            if current is None:
                flow.set_vlan(best.tag)
                self.path_switches += 1
                continue
            if best.tag != current.tag and \
                    current.metric - best.metric > self.hysteresis:
                flow.set_vlan(best.tag)
                self.path_switches += 1
                # Locally account for the move so other flows deciding in the
                # same round (before fresh probes arrive) don't all pile onto
                # the path that just looked best.  CONGA's switches keep this
                # state in their congestion tables; end-hosts keep it locally.
                best.metric += self.hysteresis
                current.metric = max(0.0, current.metric - self.hysteresis)


# ---------------------------------------------------------------------------
# The Figure 4 experiment
# ---------------------------------------------------------------------------
@dataclass
class CongaExperimentResult:
    """Achieved throughput and fabric utilisation for one load-balancing scheme."""

    scheme: str
    demand_bps: dict[str, float]
    achieved_bps: dict[str, float]
    max_core_utilization: float
    core_utilizations: dict[str, float] = field(default_factory=dict)

    def achieved_fraction(self, flow: str) -> float:
        demand = self.demand_bps.get(flow, 0.0)
        return self.achieved_bps.get(flow, 0.0) / demand if demand else 0.0


#: The fabric links whose utilisation Figure 4 reports.
CORE_LINKS = [("L1", "S0"), ("L1", "S1"), ("S0", "L2"), ("S1", "L2"), ("L0", "S0")]


def _wire_conga_traffic(experiment, scheme: str, subflow_rate: float,
                        num_l0: int, num_l1: int, warmup_s: float) -> None:
    """Setup hook: subflows, meters, the CONGA* controller, warm-up snapshot.

    Module-level (bound via :func:`functools.partial`) so a CONGA scenario's
    spec pickles across a sweep-worker boundary.
    """
    sim, network = experiment.sim, experiment.network
    meters = {"L0:L2": ThroughputMeter(sim, window_s=0.25),
              "L1:L2": ThroughputMeter(sim, window_s=0.25)}
    receiver = network.hosts["hl2"]

    flows_l0, flows_l1 = [], []
    for i in range(num_l0):
        dport = 40000 + i
        receiver.listen(dport, meters["L0:L2"].on_packet)
        flows_l0.append(RateLimitedFlow(sim, network.hosts["hl0"], "hl2",
                                        rate_bps=subflow_rate, dport=dport,
                                        vlan=i % 2, packet_payload_bytes=1000))
    for i in range(num_l1):
        dport = 41000 + i
        receiver.listen(dport, meters["L1:L2"].on_packet)
        # ECMP: deterministically split the subflows evenly across both paths
        # (the paper's "ECMP splits the flow from L1 to L2 equally").
        flows_l1.append(RateLimitedFlow(sim, network.hosts["hl1"], "hl2",
                                        rate_bps=subflow_rate, dport=dport,
                                        vlan=i % 2, packet_payload_bytes=1000))

    if scheme == "conga":
        controller = CongaController(experiment.stacks["hl1"], "hl2",
                                     path_tags=[0, 1])
        for flow in flows_l1:
            controller.manage_flow(flow)
        experiment.extras["controller"] = controller
        experiment.on_stop(controller.stop)

    # Snapshot fabric-link byte counters after warm-up to measure utilisation.
    counters_at_warmup: dict[str, int] = {}

    def _snapshot() -> None:
        for a, b in CORE_LINKS:
            ports = network.ports_towards(a, b)
            counters_at_warmup[f"{a}->{b}"] = \
                network.switches[a].ports[ports[0]].tx_bytes

    sim.schedule(warmup_s, _snapshot)
    experiment.extras["meters"] = meters
    experiment.extras["flows"] = {"L0:L2": flows_l0, "L1:L2": flows_l1}
    experiment.extras["counters_at_warmup"] = counters_at_warmup
    for meter in meters.values():
        experiment.on_stop(meter.stop)


def _to_conga_result(result: ExperimentResult, scheme: str, demand_l0: float,
                     demand_l1: float, link_rate_bps: float,
                     warmup_s: float) -> CongaExperimentResult:
    """Result mapper for :func:`conga_scenario` (module-level for pickling)."""
    network = result.network
    meters = result.extras["meters"]
    counters_at_warmup = result.extras["counters_at_warmup"]
    measurement_window = result.end_time_s - warmup_s
    core_utilizations = {}
    for a, b in CORE_LINKS:
        ports = network.ports_towards(a, b)
        tx_bytes = network.switches[a].ports[ports[0]].tx_bytes
        delta = tx_bytes - counters_at_warmup.get(f"{a}->{b}", 0)
        core_utilizations[f"{a}->{b}"] = \
            (delta * 8.0 / measurement_window) / link_rate_bps

    skip = int(warmup_s / 0.25)
    achieved = {name: meter.mean_throughput_bps(skip_windows=skip)
                for name, meter in meters.items()}
    return CongaExperimentResult(
        scheme=scheme,
        demand_bps={"L0:L2": demand_l0, "L1:L2": demand_l1},
        achieved_bps=achieved,
        max_core_utilization=max(core_utilizations.values()),
        core_utilizations=core_utilizations,
    )


def conga_scenario(scheme: str = "conga", link_rate_bps: float = mbps(10),
                   demand_l0_fraction: float = 0.5,
                   demand_l1_fraction: float = 1.2,
                   subflow_rate_fraction: float = 0.1,
                   warmup_s: float = 2.0, seed: int = 1) -> Scenario:
    """The Figure 4 scenario as a :class:`Scenario` ("conga" or "ecmp").

    Demands are expressed as fractions of the fabric link rate (the paper uses
    50 and 120 Mb/s on 100 Mb/s links); each demand is realised as a bundle of
    equal-rate UDP subflows so ECMP has something to hash.

    ``conga_scenario(scheme).run(duration_s=10.0)`` returns a
    :class:`CongaExperimentResult`.  Subflows, meters, the CONGA* controller
    and the warm-up counter snapshot are wired in a setup hook.  Hooks are
    partials over module-level functions, so
    ``conga_scenario(...).to_spec()`` is sweepable.
    """
    if scheme not in ("conga", "ecmp"):
        raise ValueError("scheme must be 'conga' or 'ecmp'")

    demand_l0 = demand_l0_fraction * link_rate_bps
    demand_l1 = demand_l1_fraction * link_rate_bps
    subflow_rate = subflow_rate_fraction * link_rate_bps
    num_l0 = max(1, int(round(demand_l0 / subflow_rate)))
    num_l1 = max(1, int(round(demand_l1 / subflow_rate)))

    return (Scenario("conga", seed=seed, name=f"conga-{scheme}",
                     link_rate_bps=link_rate_bps, group_policy="vlan",
                     utilization_ewma_alpha=0.3)
            .setup(partial(_wire_conga_traffic, scheme=scheme,
                           subflow_rate=subflow_rate, num_l0=num_l0,
                           num_l1=num_l1, warmup_s=warmup_s))
            .map_result(partial(_to_conga_result, scheme=scheme,
                                demand_l0=demand_l0, demand_l1=demand_l1,
                                link_rate_bps=link_rate_bps,
                                warmup_s=warmup_s)))
