"""Remediation policies and the controller that drives them.

The remediation loop closes the paper's diagnosis story: a TPP app (the
loss-localization detector, :mod:`repro.apps.losslocal`) measures per-hop
tx/rx deficits; every ``period_s`` the :class:`RemediationController`
polls the detector's aggregators, names the worst link, and hands the
verdict to a pluggable policy.  Policies are one decorator away::

    @register_policy("my-policy")
    class MyPolicy(RemediationPolicy):
        def react(self, controller, verdict):
            ...
            return "disabled"           # or "refused" / "ignored"

Shipped policies:

* ``do-nothing`` — records verdicts and metrics, never acts (the
  baseline the benchmark compares against);
* ``disable-and-repair`` — takes the named link down, recomputes routes
  around it, and schedules a clean repair ``repair_time_s`` later;
* ``capacity-constrained`` — like disable-and-repair, but refuses to
  disable when doing so would push any ToR's up fabric-link count below
  ``min_path_diversity`` (CorrOpt-style: never trade corruption loss for
  a capacity cliff).

The controller emits its measurements as mergeable summaries — counters
plus a :class:`~repro.collect.summary.SeriesSummary` with the
``loss-penalty`` and ``worst-tor-diversity`` timeseries — which the
experiment pushes through the same collect plane every TPP app uses.

Determinism: the controller draws no randomness.  Re-routing after a
disable/repair reinstalls shortest-path state at a strictly higher flow
priority (old entries resolve oldest-first at equal priority) and re-uses
the hash-group salt captured at init, so ECMP placement on unaffected
paths is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Optional

from repro.collect import CounterSummary, SeriesSummary, SummaryBundle
from repro.net.port import DROP_CORRUPTED, DROP_LINK_DOWN, DROP_PEER_DOWN
from repro.session.registry import Registry

from .plan import RemediationSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.endhost import DeployedApplication
    from repro.net.link import Link
    from repro.net.sim import Simulator
    from repro.net.topology import Network

__all__ = ["LinkVerdict", "POLICIES", "RemediationController",
           "RemediationPolicy", "max_deficits", "ranked_links",
           "register_policy"]

#: The process-wide policy registry (``Scenario.remediation`` resolves here).
POLICIES = Registry("remediation policy")
register_policy = POLICIES.register


@dataclass(frozen=True)
class LinkVerdict:
    """A detector's accusation: ``link`` is losing ``deficit`` packets.

    ``pair`` is the directed (sending switch id, receiving switch id)
    hop the deficit was measured over; ``deficit`` is the largest
    per-sample ``tx_sender - rx_receiver`` gap observed (in packets,
    corrected for the sampling packet itself — healthy hops sit at or
    below zero).
    """

    link: str
    pair: tuple[int, int]
    deficit: int


def max_deficits(aggregators: Mapping[str, Any]) -> dict[tuple[int, int], int]:
    """Per-pair max ``link_deficits`` folded across a detector's aggregators
    in sorted host order; an aggregator without that face contributes
    nothing."""
    folded: dict[tuple[int, int], int] = {}
    for host in sorted(aggregators):
        for pair, deficit in getattr(aggregators[host], "link_deficits", {}).items():
            if deficit > folded.get(pair, -(1 << 62)):
                folded[pair] = deficit
    return folded


def ranked_links(deficits: Mapping[tuple[int, int], int],
                 network: "Network") -> Iterator[LinkVerdict]:
    """A verdict for every pair that names a physical link, worst first.

    Maps each directed switch-id pair back to the link through the live
    network; ties rank by pair for determinism.
    """
    names = {switch.switch_id: name for name, switch in network.switches.items()}
    for pair, deficit in sorted(deficits.items(), key=lambda kv: (-kv[1], kv[0])):
        # An unknown switch id maps to None, which no link connects.
        link = network.link_between(names.get(pair[0]), names.get(pair[1]))
        if link is not None:
            yield LinkVerdict(link=link.name, pair=pair, deficit=deficit)


class RemediationPolicy:
    """Base policy: :meth:`react` decides what to do with a verdict.

    Returns one of ``"disabled"`` (the link was taken down),
    ``"refused"`` (deliberately not acted on — never asked again), or
    ``"ignored"`` (no action, may be asked again).
    """

    def react(self, controller: "RemediationController",
              verdict: LinkVerdict) -> str:
        raise NotImplementedError


@register_policy("do-nothing")
class DoNothingPolicy(RemediationPolicy):
    """The baseline: observe, record, never touch the network."""

    def react(self, controller: "RemediationController",
              verdict: LinkVerdict) -> str:
        return "ignored"


@register_policy("disable-and-repair")
class DisableAndRepairPolicy(RemediationPolicy):
    """Take the accused link down and (optionally) repair it later."""

    def react(self, controller: "RemediationController",
              verdict: LinkVerdict) -> str:
        controller.disable(verdict.link)
        return "disabled"


@register_policy("capacity-constrained")
class CapacityConstrainedPolicy(RemediationPolicy):
    """Disable only while every ToR keeps ``min_path_diversity`` fabric links.

    A refusal is permanent (the verdict can only grow), so a link whose
    removal would strand a ToR below the floor keeps corrupting — the
    operator's capacity guarantee outranks the loss.
    """

    def react(self, controller: "RemediationController",
              verdict: LinkVerdict) -> str:
        floor = controller.spec.min_path_diversity
        if controller.diversity_after_disable(verdict.link) < floor:
            return "refused"
        controller.disable(verdict.link)
        return "disabled"


class RemediationController:
    """The periodic poll-verdict-react loop plus its metric streams.

    Wired by the session layer (``Scenario.remediation``): polls the
    detector app's aggregators every ``spec.period_s``, feeds the worst
    actionable verdict to the policy, and appends one point per tick to
    the ``loss-penalty`` and ``worst-tor-diversity`` series.  Exposes the
    same ``summarize()`` face as a per-host aggregator; the experiment
    pushes it to the collect plane (as host ``"controller"``) beside them.
    """

    def __init__(self, network: "Network", spec: RemediationSpec,
                 detector: "DeployedApplication", sim: "Simulator") -> None:
        self.network = network
        self.spec = spec
        self.detector = detector
        self.sim = sim
        self.policy: RemediationPolicy = POLICIES.get(spec.policy)()
        self.actions: list[tuple[float, str, str]] = []   # (time, link, action)
        self.ticks = 0
        self.verdicts_seen = 0
        self.links_disabled = 0
        self.links_repaired = 0
        self.reroutes = 0
        self.refusals = 0
        self._timeseries = SeriesSummary()        # both metrics, per tick
        self._acted: set[str] = set()             # disabled or refused links
        self._process = None
        # Baseline penalty at attach time: a remediation loop declared on an
        # already-lossy network only charges itself for loss from here on.
        self._penalty_base = self._raw_penalty()
        # Mid-run reroutes must out-rank the builders' priority-0 entries
        # (equal-priority matches resolve oldest-first), and must keep the
        # ECMP placement the run started with on unaffected paths.
        self._next_priority = 100
        self._group_policy, self._salt = self._capture_group_style()

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        if self._process is None:
            self._process = self.sim.schedule_periodic(self.spec.period_s,
                                                       self._tick)

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    # ------------------------------------------------------------ the loop
    def _tick(self) -> None:
        now = self.sim.now
        self.ticks += 1
        verdict = self.detect()
        if verdict is not None and verdict.deficit >= self.spec.threshold:
            self.verdicts_seen += 1
            action = self.policy.react(self, verdict)
            self.actions.append((now, verdict.link, action))
            if action == "disabled":
                self._acted.add(verdict.link)
            elif action == "refused":
                self._acted.add(verdict.link)
                self.refusals += 1
        self._timeseries.add(now, "loss-penalty", self.loss_penalty())
        self._timeseries.add(now, "worst-tor-diversity",
                             self.worst_tor_diversity())

    def detect(self) -> Optional[LinkVerdict]:
        """The worst actionable verdict across the detector's aggregators.

        Folds every aggregator's ``link_deficits`` with a per-pair max
        (:func:`max_deficits`), then returns the first link in (deficit
        desc, pair) order (:func:`ranked_links`) not yet acted on.
        """
        deficits = max_deficits(self.detector.aggregators)
        for verdict in ranked_links(deficits, self.network):
            if verdict.link not in self._acted:
                return verdict
        return None

    # -------------------------------------------------------------- actions
    def disable(self, link_name: str) -> None:
        """Take a link down, route around it, schedule its repair."""
        link = self._find_link(link_name)
        link.set_down()
        self.links_disabled += 1
        self._reroute()
        if self.spec.repair_time_s is not None:
            self.sim.schedule(self.spec.repair_time_s, self._repair, link)

    def _repair(self, link: "Link") -> None:
        link.set_up()
        link.clear_loss()        # a repair replaces the faulty hardware
        self.links_repaired += 1
        self._reroute()

    def _reroute(self) -> None:
        self.network.install_shortest_path_routes(
            ecmp=True, group_policy=self._group_policy,
            priority=self._next_priority, salt=self._salt)
        self._next_priority += 1
        self.reroutes += 1

    def _capture_group_style(self) -> tuple[str, int]:
        """The multipath policy/salt the topology was built with."""
        for name in sorted(self.network.switches):
            for group_id in sorted(self.network.switches[name].group_table.groups):
                group = self.network.switches[name].group_table.groups[group_id]
                return group.policy, group.salt
        return "hash", 0

    def _find_link(self, link_name: str) -> "Link":
        for link in self.network.links:
            if link.name == link_name:
                return link
        menu = ", ".join(sorted(link.name for link in self.network.links)) \
            or "<none>"
        raise ValueError(f"unknown link {link_name!r}; network links: {menu}")

    # -------------------------------------------------------------- metrics
    def _raw_penalty(self) -> int:
        return sum(port.drops_by_reason.get(category, 0)
                   for node in self.network.nodes.values() for port in node.ports
                   for category in (DROP_CORRUPTED, DROP_LINK_DOWN, DROP_PEER_DOWN))

    def loss_penalty(self) -> int:
        """Fault-attributable packet losses since the controller attached.

        Counts corruption plus link-down/peer-down drops network-wide;
        congestion (queue-overflow) drops are deliberately excluded — they
        are the workload's, not the fault plane's.
        """
        return self._raw_penalty() - self._penalty_base

    def worst_tor_diversity(self) -> int:
        """Min over ToR switches of their up fabric-link count.

        A ToR is any switch with at least one attached host; a fabric
        link is a switch-to-switch link that is currently usable.  This
        is the capacity floor the constrained policy protects.
        """
        hosts = self.network.hosts
        switches = self.network.switches
        worst: Optional[int] = None
        for name in sorted(switches):
            ports = switches[name].ports
            if not any(p.peer is not None and p.peer.node.name in hosts
                       for p in ports):
                continue
            up_fabric = sum(
                1 for p in ports
                if p.peer is not None and p.peer.node.name in switches
                and p.up and p.peer.up
                and p.link is not None and p.link.up)
            worst = up_fabric if worst is None else min(worst, up_fabric)
        return worst if worst is not None else 0

    def diversity_after_disable(self, link_name: str) -> int:
        """What :meth:`worst_tor_diversity` would read with this link down."""
        link = self._find_link(link_name)
        if not link.up:
            return self.worst_tor_diversity()
        # Probe by flipping the raw flag (not set_down: no transition is
        # recorded, no event fires) and restoring before anyone observes it.
        link.up = False
        try:
            return self.worst_tor_diversity()
        finally:
            link.up = True

    def counters(self) -> dict[str, int]:
        """This loop's action accounting (``faults.<name>``)."""
        return {
            "remediation_actions": len(self.actions),
            "links_disabled": self.links_disabled,
            "links_repaired": self.links_repaired,
            "reroutes": self.reroutes,
            "refusals": self.refusals,
        }

    # ------------------------------------------------------- collector face
    def summarize(self) -> SummaryBundle:
        """A mergeable snapshot: action counters + the two metric series."""
        counters = CounterSummary({
            "ticks": self.ticks,
            "verdicts": self.verdicts_seen,
            "links_disabled": self.links_disabled,
            "links_repaired": self.links_repaired,
            "reroutes": self.reroutes,
            "refusals": self.refusals,
            "loss_penalty": self.loss_penalty(),
        })
        return SummaryBundle({"counters": counters,
                              "timeseries": self._timeseries.copy()})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RemediationController policy={self.spec.policy!r} "
                f"ticks={self.ticks} disabled={self.links_disabled} "
                f"refused={self.refusals}>")
