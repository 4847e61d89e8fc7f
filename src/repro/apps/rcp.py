"""RCP*: the end-host refactoring of the Rate Control Protocol (§2.2, Figure 2).

The network allocates two per-link application registers:

* ``Link:AppSpecific_0`` — a version number,
* ``Link:AppSpecific_1`` — the link's current fair-share rate ``R``.

Every flow runs a rate controller at its sender that executes the three
phases of §2.2 once per control period:

1. **Collect** — a five-instruction TPP reads, at every hop, the link
   capacity, queue backlog, utilisation, and the (version, R) pair.
2. **Compute** — the sender runs the RCP control equation (Eq. 1) per link to
   produce an updated fair rate ``R_new`` for each hop.
3. **Update** — a CSTORE-guarded TPP writes ``R_new`` back, bumping the
   version so concurrent updates by other flows are not lost.

The flow then sets its sending rate to the α-fair aggregate of the per-link
rates (Eq. 2): α→∞ gives max-min fairness (the minimum), α=1 proportional
fairness.

Deviation from the paper's listing: the collect TPP reads
``[Link:Capacity]`` instead of ``[Switch:SwitchID]`` (and TX- rather than
RX-utilisation) so that a controller needs no out-of-band knowledge of the
topology; both reads address the same output link the queue sample refers
to.  docs/PAPER_MAP.md records this substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.core import addressing
from repro.core.compiler import compile_tpp
from repro.core.isa import Instruction, Opcode
from repro.core.packet_format import AddressingMode, TPP, make_tpp
from repro.endhost import EndHostStack
from repro.net import RateLimitedFlow, ThroughputMeter, mbps
from repro.session import ExperimentResult, Scenario
from repro.stats import TimeSeries
from repro.switches.counters import UTILIZATION_SCALE

#: Rate quantum used to fit rates into 16-bit packet-memory words: one unit
#: is 10 kb/s, so a 16-bit word covers rates up to ~655 Mb/s.
RATE_UNIT_BPS = 10_000.0

#: Proportional fairness / max-min fairness aliases for the α parameter.
ALPHA_PROPORTIONAL = 1.0
ALPHA_MAXMIN = math.inf

COLLECT_TPP_SOURCE = """
PUSH [Link:Capacity]
PUSH [Link:QueueSizeBytes]
PUSH [Link:TX-Utilization]
PUSH [Link:AppSpecific_0]   # version number
PUSH [Link:AppSpecific_1]   # Rfair
"""

COLLECT_VALUES_PER_HOP = 5


@dataclass
class RcpParameters:
    """The control-equation constants (Eq. 1)."""

    alpha_gain: float = 0.5          # `a` in the paper
    beta_gain: float = 0.25          # `b` in the paper
    average_rtt_s: float = 0.02      # `d`: the average RTT of flows on the link
    period_s: float = 0.01           # `T`: how often each flow runs the loop
    min_rate_bps: float = 100e3      # floor to keep flows alive
    initial_flow_rate_bps: float = 1e6   # "all flows start at 1 Mb/s"


def rcp_update(rate_bps: float, input_rate_bps: float, queue_bytes: float,
               capacity_bps: float, params: RcpParameters) -> float:
    """One application of the RCP control equation (Eq. 1), clamped to [min, C]."""
    if capacity_bps <= 0:
        return params.min_rate_bps
    d = params.average_rtt_s
    T = min(params.period_s, d)
    queue_term = params.beta_gain * (queue_bytes * 8.0) / d
    feedback = (T / d) * (params.alpha_gain * (input_rate_bps - capacity_bps) + queue_term)
    new_rate = rate_bps * (1.0 - feedback / capacity_bps)
    return max(params.min_rate_bps, min(capacity_bps, new_rate))


def alpha_fair_rate(link_rates_bps: list[float], alpha: float) -> float:
    """Aggregate per-link fair rates into one flow rate (Eq. 2).

    ``alpha`` = 1 is proportional fairness, ``alpha`` → ∞ is max-min (the
    minimum of the per-link rates).
    """
    rates = [max(rate, 1.0) for rate in link_rates_bps if rate > 0]
    if not rates:
        raise ValueError("alpha_fair_rate needs at least one positive link rate")
    if math.isinf(alpha):
        return min(rates)
    if alpha == 0:
        # α = 0 maximises total throughput: the flow is limited only by its
        # tightest link, same as max-min for a single flow's perspective.
        return min(rates)
    # Normalise by the minimum rate so large α does not underflow to zero.
    minimum = min(rates)
    total = sum((rate / minimum) ** (-alpha) for rate in rates)
    return minimum * total ** (-1.0 / alpha)


def collect_tpp(num_hops: int = 8, app_id: int = 0):
    """Compile the phase-1 collection TPP."""
    return compile_tpp(COLLECT_TPP_SOURCE, num_hops=num_hops, app_id=app_id)


def build_update_tpp(per_hop_updates: list[tuple[int, int]], app_id: int = 0,
                     num_hops: Optional[int] = None) -> TPP:
    """Build the phase-3 update TPP.

    ``per_hop_updates`` holds ``(observed_version, new_rate_units)`` per hop,
    in path order.  The program is the paper's::

        CSTORE [Link:AppSpecific_0], [Packet:Hop[0]], [Packet:Hop[1]]
        STORE  [Link:AppSpecific_1], [Packet:Hop[2]]

    with packet memory prefilled to ``V_i, V_i + 1, R_new_i`` for hop *i*.
    """
    instructions = [
        Instruction(Opcode.CSTORE,
                    address=addressing.resolve("[Link:AppSpecific_0]"), packet_offset=0),
        Instruction(Opcode.STORE,
                    address=addressing.resolve("[Link:AppSpecific_1]"), packet_offset=2),
    ]
    hops = num_hops if num_hops is not None else max(len(per_hop_updates), 1)
    tpp = make_tpp(instructions, num_hops=hops, mode=AddressingMode.HOP,
                   app_id=app_id, values_per_hop=3)
    for hop, (version, rate_units) in enumerate(per_hop_updates):
        tpp.write_hop_word(0, version, hop=hop)
        tpp.write_hop_word(1, (version + 1) & 0xFFFF, hop=hop)
        tpp.write_hop_word(2, rate_units, hop=hop)
    return tpp


@dataclass
class LinkSample:
    """Per-hop state parsed from a completed collection TPP."""

    capacity_bps: float
    queue_bytes: int
    utilization: float            # fraction of capacity
    version: int
    fair_rate_bps: float


def parse_collect_tpp(tpp: TPP) -> list[LinkSample]:
    """Decode the per-hop samples from an executed collection TPP."""
    samples = []
    for hop in tpp.words_by_hop(COLLECT_VALUES_PER_HOP)[:tpp.hop_number]:
        if len(hop) < COLLECT_VALUES_PER_HOP:
            continue
        capacity_mbps, queue_bytes, util_bp, version, rate_units = hop
        capacity_bps = capacity_mbps * 1e6
        fair_rate = rate_units * RATE_UNIT_BPS if rate_units > 0 else capacity_bps
        samples.append(LinkSample(capacity_bps=capacity_bps, queue_bytes=queue_bytes,
                                  utilization=util_bp / UTILIZATION_SCALE,
                                  version=version, fair_rate_bps=fair_rate))
    return samples


class RcpFlowController:
    """The per-flow rate controller + rate limiter pair of §2.2."""

    def __init__(self, stack: EndHostStack, flow: RateLimitedFlow, dst: str,
                 params: RcpParameters, alpha: float = ALPHA_MAXMIN,
                 bottleneck_only: bool = True) -> None:
        self.stack = stack
        self.flow = flow
        self.dst = dst
        self.params = params
        self.alpha = alpha
        #: Ignore hops whose links are far from saturation-relevant (the
        #: host-switch edge links are provisioned 10x in the Figure 2 setup).
        self.bottleneck_only = bottleneck_only
        self.control_rounds = 0
        self.updates_sent = 0
        self.rate_history = TimeSeries()
        self._collect_template = collect_tpp(app_id=stack.executor_app_id).tpp
        flow.set_rate(params.initial_flow_rate_bps)
        self._process = stack.host.sim.schedule_periodic(params.period_s, self._control_round)

    def stop(self) -> None:
        self._process.stop()

    # ------------------------------------------------------------- phase 1+2+3
    def _control_round(self) -> None:
        self.control_rounds += 1
        self.stack.executor.execute(self._collect_template.clone(), self.dst,
                                    self._on_collected, retries=1,
                                    timeout_s=4 * self.params.period_s)

    def _on_collected(self, tpp: Optional[TPP]) -> None:
        if tpp is None or tpp.hop_number == 0:
            return
        samples = parse_collect_tpp(tpp)
        if not samples:
            return

        relevant = samples
        if self.bottleneck_only:
            min_capacity = min(sample.capacity_bps for sample in samples)
            relevant = [s for s in samples if s.capacity_bps <= 2 * min_capacity]

        updates: list[tuple[int, int]] = []
        link_rates: list[float] = []
        for sample in samples:
            new_rate = rcp_update(sample.fair_rate_bps,
                                  sample.utilization * sample.capacity_bps,
                                  sample.queue_bytes, sample.capacity_bps, self.params)
            updates.append((sample.version, int(round(new_rate / RATE_UNIT_BPS))))
            if sample in relevant:
                link_rates.append(new_rate)

        # Phase 3: write the new rates back (asynchronously, CSTORE-guarded).
        update = build_update_tpp(updates, app_id=self.stack.executor_app_id,
                                  num_hops=max(len(updates), 1))
        self.updates_sent += 1
        self.stack.executor.execute(update, self.dst, lambda _result: None,
                                    retries=0, timeout_s=4 * self.params.period_s)

        # The flow's own rate is the α-fair aggregate of the per-link rates.
        flow_rate = alpha_fair_rate(link_rates or
                                    [s.fair_rate_bps for s in samples], self.alpha)
        self.flow.set_rate(max(self.params.min_rate_bps, flow_rate))
        self.rate_history.add(self.stack.host.sim.now, flow_rate)


# ---------------------------------------------------------------------------
# The Figure 2 experiment
# ---------------------------------------------------------------------------
@dataclass
class RcpExperimentResult:
    """Per-flow throughput series and converged averages for one α."""

    alpha: float
    throughput_series: dict[str, TimeSeries] = field(default_factory=dict)
    mean_throughput_bps: dict[str, float] = field(default_factory=dict)
    control_overhead_fraction: float = 0.0
    link_rate_bps: float = 0.0


#: Figure 2's flow endpoints (a crosses both bottlenecks, b and c one each).
FLOW_SPECS = {
    "a": ("ha", "ha_dst"),     # two bottleneck hops
    "b": ("hb", "hb_dst"),     # s0-s1 only
    "c": ("hc", "hc_dst"),     # s1-s2 only
}


def _wire_rcp_flows(experiment, params: RcpParameters, alpha: float,
                    packet_payload_bytes: int) -> None:
    """Setup hook: wire the Figure 2 flows, meters, and controllers.

    Module-level (bound via :func:`functools.partial`) so an RCP scenario's
    spec pickles across a sweep-worker boundary.
    """
    meters: dict[str, ThroughputMeter] = {}
    controllers: dict[str, RcpFlowController] = {}
    for name, (src, dst) in FLOW_SPECS.items():
        flow = RateLimitedFlow(experiment.sim, experiment.host(src), dst,
                               rate_bps=params.initial_flow_rate_bps,
                               packet_payload_bytes=packet_payload_bytes,
                               dport=21000 + ord(name))
        meter = ThroughputMeter(experiment.sim, window_s=0.25)
        experiment.host(dst).listen(21000 + ord(name), meter.on_packet)
        meters[name] = meter
        controllers[name] = RcpFlowController(experiment.stacks[src], flow, dst,
                                              params, alpha=alpha)
        experiment.on_stop(meter.stop)
        experiment.on_stop(controllers[name].stop)
    experiment.extras["meters"] = meters
    experiment.extras["controllers"] = controllers


def _to_rcp_result(result: ExperimentResult, alpha: float,
                   link_rate_bps: float,
                   warmup_fraction: float) -> RcpExperimentResult:
    """Result mapper for :func:`rcp_scenario` (module-level for pickling)."""
    meters: dict[str, ThroughputMeter] = result.extras["meters"]
    rcp_result = RcpExperimentResult(alpha=alpha, link_rate_bps=link_rate_bps)
    data_bytes = 0
    control_bytes = result.instrumentation_overhead_bytes
    skip = int(len(next(iter(meters.values())).windows) * warmup_fraction)
    for name, meter in meters.items():
        series = TimeSeries()
        for t, bps in meter.windows:
            series.add(t, bps)
        rcp_result.throughput_series[name] = series
        rcp_result.mean_throughput_bps[name] = meter.mean_throughput_bps(skip_windows=skip)
        data_bytes += meter.total_bytes
    rcp_result.control_overhead_fraction = \
        control_bytes / data_bytes if data_bytes else 0.0
    return rcp_result


def rcp_scenario(alpha: float = ALPHA_MAXMIN, link_rate_bps: float = mbps(10),
                 params: Optional[RcpParameters] = None,
                 packet_payload_bytes: int = 1000,
                 warmup_fraction: float = 0.4,
                 utilization_ewma_alpha: float = 0.25, seed: int = 1) -> Scenario:
    """The Figure 2 experiment, for one fairness criterion, as a :class:`Scenario`.

    Flow *a* crosses both 100 %-capacity links (s0-s1 and s1-s2); flows *b*
    and *c* cross one each.  Max-min fairness should give every flow half a
    link; proportional fairness gives *a* one third and *b*, *c* two thirds.

    The default link rate is scaled down from the paper's 100 Mb/s to keep the
    discrete-event simulation fast; fairness shares are rate-relative, so the
    figure's *shape* is unchanged.  Pass ``link_rate_bps=mbps(100)`` for the
    full-scale run.

    ``rcp_scenario(alpha=...).run(duration_s=15.0)`` returns an
    :class:`RcpExperimentResult`.  Flows, meters and per-flow controllers
    are wired in a setup hook (they need live hosts), and the result is
    assembled by the mapper.  Hooks are partials over module-level
    functions, so ``rcp_scenario(...).to_spec()`` is sweepable.
    """
    if params is None:
        params = RcpParameters()

    return (Scenario("rcp-chain", seed=seed, name="rcp-fairness",
                     link_rate_bps=link_rate_bps,
                     utilization_ewma_alpha=utilization_ewma_alpha)
            .setup(partial(_wire_rcp_flows, params=params, alpha=alpha,
                           packet_payload_bytes=packet_payload_bytes))
            .map_result(partial(_to_rcp_result, alpha=alpha,
                                link_rate_bps=link_rate_bps,
                                warmup_fraction=warmup_fraction)))


def expected_fair_shares(alpha: float, link_rate_bps: float) -> dict[str, float]:
    """The analytic allocations Figure 2 is checked against."""
    if math.isinf(alpha):
        return {"a": link_rate_bps / 2, "b": link_rate_bps / 2, "c": link_rate_bps / 2}
    if alpha == ALPHA_PROPORTIONAL:
        return {"a": link_rate_bps / 3, "b": 2 * link_rate_bps / 3, "c": 2 * link_rate_bps / 3}
    raise ValueError(f"no closed-form expectation for alpha={alpha}")
