"""Network verification and fast updates over TPPs (§2.6).

Two tasks from the paper's "other possibilities" list:

* **Forwarding verification / route-convergence measurement.**  Path
  visibility makes it possible to check that packets actually follow the
  routes the control plane intends, and to measure how long forwarding takes
  to converge after a failure — something end-to-end reachability cannot do,
  because backup paths keep connectivity alive while routes are still
  changing.  :class:`RouteVerifier` compares observed packet histories against
  the control plane's expected path; :func:`measure_convergence_time` probes
  continuously across a link failure + reroute and reports when the observed
  path settles on the new expectation.

* **Fast network updates.**  Writing 64 bits per hop is enough to install new
  routing state in half a round trip.  The switch model exposes per-stage
  application registers (``Stage$i:RegK``), and :func:`fast_update_registers`
  uses a hop-addressed STORE TPP to install a value on every switch along a
  path in a single one-way traversal, returning the number of hops updated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core import addressing
from repro.core.compiler import compile_tpp
from repro.core.isa import Instruction, Opcode
from repro.core.packet_format import AddressingMode, TPP, make_tpp
from repro.endhost import EndHostStack
from repro.net.topology import Network

PATH_TPP_SOURCE = """
PUSH [Switch:SwitchID]
PUSH [PacketMetadata:InputPort]
PUSH [PacketMetadata:MatchedEntryVersion]
"""

PATH_VALUES_PER_HOP = 3


@dataclass
class PathObservation:
    """The switch-level path a probe actually took, with forwarding versions."""

    time: float
    switch_ids: list[int]
    entry_versions: list[int] = field(default_factory=list)


@dataclass
class VerificationResult:
    """Outcome of comparing an observed path against the expected one."""

    expected: list[int]
    observed: list[int]
    matches: bool
    divergence_hop: Optional[int] = None


class RouteVerifier:
    """Check that observed forwarding matches the control plane's intent."""

    def __init__(self, network: Network) -> None:
        self.network = network

    def expected_switch_path(self, src: str, dst: str) -> list[int]:
        """Switch ids on the shortest path the control plane installed."""
        nodes = self.network.compute_path(src, dst)
        return [self.network.switches[name].switch_id
                for name in nodes if name in self.network.switches]

    @staticmethod
    def verify(expected: list[int], observed: list[int]) -> VerificationResult:
        matches = expected == observed
        divergence = None
        if not matches:
            for index, (want, got) in enumerate(zip(expected, observed)):
                if want != got:
                    divergence = index
                    break
            else:
                divergence = min(len(expected), len(observed))
        return VerificationResult(expected=expected, observed=observed,
                                  matches=matches, divergence_hop=divergence)

def observation_from_tpp(tpp: TPP, time: float) -> PathObservation:
    """Parse a completed path TPP into a :class:`PathObservation`."""
    switch_ids, versions = [], []
    for hop in tpp.words_by_hop(PATH_VALUES_PER_HOP)[:tpp.hop_number]:
        if len(hop) < PATH_VALUES_PER_HOP:
            continue
        switch_ids.append(hop[0])
        versions.append(hop[2])
    return PathObservation(time=time, switch_ids=switch_ids, entry_versions=versions)


@dataclass
class ConvergenceResult:
    """Outcome of a route-convergence measurement."""

    failure_time: float
    converged_time: Optional[float]
    observations: list[PathObservation]

    @property
    def convergence_seconds(self) -> Optional[float]:
        if self.converged_time is None:
            return None
        return self.converged_time - self.failure_time


def measure_convergence_time(stack: EndHostStack, dst: str, expected_new_path: list[int],
                             failure_time: float, probe_interval_s: float = 1e-3,
                             duration_s: float = 0.5) -> ConvergenceResult:
    """Probe continuously and report when the observed path settles on the new route.

    The caller is responsible for scheduling the failure + reroute (e.g. with
    :meth:`repro.net.link.Link.set_down` and new ``install_route`` calls); this
    helper only produces probes and interprets their results.  Returns a
    result whose ``converged_time`` is the first probe time at or after the
    failure whose observed path equals ``expected_new_path``.
    """
    sim = stack.host.sim
    observations: list[PathObservation] = []
    template = compile_tpp(PATH_TPP_SOURCE, num_hops=8,
                           app_id=stack.executor_app_id).tpp

    def _probe() -> None:
        sent_at = sim.now
        stack.executor.execute(template.clone(), dst,
                               lambda tpp: _record(tpp, sent_at),
                               retries=0, timeout_s=probe_interval_s * 4)

    def _record(tpp: Optional[TPP], sent_at: float) -> None:
        if tpp is None:
            return
        observations.append(observation_from_tpp(tpp, sent_at))

    process = sim.schedule_periodic(probe_interval_s, _probe)
    sim.run(until=sim.now + duration_s)
    process.stop()

    converged_time = None
    for observation in observations:
        if observation.time >= failure_time and observation.switch_ids == expected_new_path:
            converged_time = observation.time
            break
    return ConvergenceResult(failure_time=failure_time, converged_time=converged_time,
                             observations=observations)


@dataclass
class RouteVerificationResult:
    """Outcome of the Scenario-based verification + convergence experiment."""

    pre_failure: VerificationResult            # observed vs intended, before failure
    convergence: ConvergenceResult
    observations: list[PathObservation]
    probes_sent: int


def verification_scenario(src: str = "h0_0", dst: str = "h1_1",
                          failure_time: float = 0.2, reroute_delay_s: float = 0.03,
                          probe_interval_s: float = 2e-3,
                          link_rate_bps: Optional[float] = None,
                          seed: int = 1) -> "Scenario":
    """Route verification + convergence measurement as a :class:`Scenario` (§2.6).

    Probes the ``src -> dst`` path continuously over a two-leaf/two-spine
    fabric, fails the active spine uplink at ``failure_time``, reroutes both
    leaves onto the backup spine ``reroute_delay_s`` later, and reports when
    the observed path settles on the new route.
    ``.run(duration_s=...)`` returns a :class:`RouteVerificationResult`.
    """
    from repro.net import mbps
    from repro.session import Scenario

    if link_rate_bps is None:
        link_rate_bps = mbps(10)

    src_leaf = f"leaf{src.split('_')[0][1:]}"
    dst_leaf = f"leaf{dst.split('_')[0][1:]}"

    def wire_probes(experiment) -> None:
        sim, network = experiment.sim, experiment.network
        stack = experiment.stacks[src]
        observations: list[PathObservation] = []
        template = compile_tpp(PATH_TPP_SOURCE, num_hops=8,
                               app_id=stack.executor_app_id).tpp
        probes = {"sent": 0}

        def _probe() -> None:
            sent_at = sim.now
            probes["sent"] += 1
            stack.executor.execute(
                template.clone(), dst,
                lambda tpp: observations.append(observation_from_tpp(tpp, sent_at))
                if tpp is not None else None,
                retries=0, timeout_s=probe_interval_s * 4)

        process = sim.schedule_periodic(probe_interval_s, _probe)
        experiment.on_stop(process.stop)

        def fail_and_reroute() -> None:
            spine_ids = {name: network.switches[name].switch_id
                         for name in ("spine0", "spine1")}
            current_path = observations[-1].switch_ids if observations else []
            active = next((name for name, sid in spine_ids.items()
                           if sid in current_path), "spine0")
            backup = "spine1" if active == "spine0" else "spine0"
            experiment.extras["failed_spine"] = active
            experiment.extras["backup_spine"] = backup
            network.link_between(src_leaf, active).set_down()

            def reroute() -> None:
                network.switches[src_leaf].install_route(
                    dst, network.ports_towards(src_leaf, backup)[0], priority=100)
                network.switches[dst_leaf].install_route(
                    src, network.ports_towards(dst_leaf, backup)[0], priority=100)

            sim.schedule(reroute_delay_s, reroute)

        sim.schedule_at(failure_time, fail_and_reroute)
        experiment.extras["observations"] = observations
        experiment.extras["probes"] = probes

    def to_result(result) -> RouteVerificationResult:
        network = result.network
        observations: list[PathObservation] = result.extras["observations"]
        verifier = RouteVerifier(network)
        pre = [o for o in observations if o.time < failure_time]
        observed_old = pre[0].switch_ids if pre else []
        # ECMP may route via either spine; the control plane's intent is the
        # *set* of shortest paths, so verify against the member in use.
        candidates = [[network.switches[src_leaf].switch_id,
                       network.switches[spine].switch_id,
                       network.switches[dst_leaf].switch_id]
                      for spine in ("spine0", "spine1")]
        expected_old = next((path for path in candidates if path == observed_old),
                            candidates[0])
        pre_check = verifier.verify(expected_old, observed_old)
        backup = result.extras.get("backup_spine", "spine1")
        expected_new = [network.switches[src_leaf].switch_id,
                        network.switches[backup].switch_id,
                        network.switches[dst_leaf].switch_id]
        converged_time = None
        for observation in observations:
            if observation.time >= failure_time and \
                    observation.switch_ids == expected_new:
                converged_time = observation.time
                break
        convergence = ConvergenceResult(failure_time=failure_time,
                                        converged_time=converged_time,
                                        observations=observations)
        return RouteVerificationResult(pre_failure=pre_check,
                                       convergence=convergence,
                                       observations=observations,
                                       probes_sent=result.extras["probes"]["sent"])

    return (Scenario("leaf-spine", seed=seed, name="route-verification",
                     num_leaves=2, num_spines=2, hosts_per_leaf=2,
                     link_rate_bps=link_rate_bps)
            .setup(wire_probes)
            .map_result(to_result))


# ---------------------------------------------------------------------------
# Fast updates
# ---------------------------------------------------------------------------
def build_fast_update_tpp(stage: int, register: int, per_hop_values: list[int],
                          app_id: int = 0) -> TPP:
    """A one-way TPP that installs ``per_hop_values[i]`` into a stage register at hop *i*."""
    address = addressing.stage_address(stage, f"Reg{register}")
    instructions = [Instruction(Opcode.STORE, address=address, packet_offset=0)]
    tpp = make_tpp(instructions, num_hops=max(len(per_hop_values), 1),
                   mode=AddressingMode.HOP, app_id=app_id, values_per_hop=1)
    for hop, value in enumerate(per_hop_values):
        tpp.write_hop_word(0, value, hop=hop)
    return tpp


def fast_update_registers(stack: EndHostStack, dst: str, stage: int, register: int,
                          per_hop_values: list[int],
                          on_complete=None) -> None:
    """Install per-hop values along the path to ``dst`` in half a round trip (§2.6).

    The update takes effect as the TPP traverses each switch; the echo that
    comes back (handled by ``on_complete`` when supplied) is only confirmation.
    """
    tpp = build_fast_update_tpp(stage, register, per_hop_values,
                                app_id=stack.executor_app_id)
    stack.executor.execute(tpp, dst, on_complete if on_complete is not None
                           else (lambda _result: None), retries=1)
