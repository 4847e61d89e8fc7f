"""Fault plans: deterministic, picklable link-event traces.

A :class:`FaultPlan` is the fault plane's *input model* — an ordered tuple
of :class:`FaultEvent` records (``time, link, kind``) that the
:class:`~repro.faults.injector.FaultInjector` replays through the
simulator.  Three event kinds cover the degradation modes the paper's
diagnosis apps care about:

* ``loss`` — the link starts corrupting delivered packets with Bernoulli
  probability ``loss_rate`` (a gray failure: the link stays up, counters
  at the sending side keep advancing, the receiving side silently loses
  packets — the hardest case for path-level monitoring and exactly what
  per-hop TPP counter diffs localize);
* ``down`` — the link fails outright;
* ``repair`` — the link comes back up, clean (any loss rate is cleared).

Plans are frozen, canonically ordered, and plain data, so they pickle,
fingerprint, and sweep like every other piece of a
:class:`~repro.session.spec.ScenarioSpec`.  :meth:`FaultPlan.generate`
derives a plan from knobs (how many corrupting links, what rate, when)
using its own ``random.Random(seed)`` — never the scenario's master rng,
so *declaring* faults does not shift any workload's random stream.

:class:`FaultSpec` is the scenario-level declaration (``Scenario.faults``)
that resolves to a concrete plan once the topology exists;
:class:`RemediationSpec` declares the policy loop (``Scenario.remediation``)
— see :mod:`repro.faults.policy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.topology import Network

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultPlan", "FaultSpec",
           "RemediationSpec"]

#: The event kinds a plan may contain.
FAULT_KINDS = ("loss", "down", "repair")


@dataclass(frozen=True)
class FaultEvent:
    """One link event: at ``time``, ``link`` degrades (or recovers).

    ``loss_rate`` is meaningful only for ``kind="loss"`` (and must then be
    in ``(0, 1]``); ``down``/``repair`` events must leave it at 0.
    """

    time: float
    link: str
    kind: str
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.time < math.inf:
            raise ValueError(f"fault event time must be finite and "
                             f"non-negative, got {self.time!r}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {FAULT_KINDS}")
        if self.kind == "loss":
            if not 0.0 < self.loss_rate <= 1.0:
                raise ValueError(f"loss events need loss_rate in (0, 1], "
                                 f"got {self.loss_rate}")
        elif self.loss_rate:
            raise ValueError(f"{self.kind!r} events take no loss_rate "
                             f"(got {self.loss_rate})")


def _event_key(event: FaultEvent) -> tuple:
    return (event.time, event.link, FAULT_KINDS.index(event.kind))


@dataclass(frozen=True)
class FaultPlan:
    """A canonical, replayable trace of link events.

    Events are kept sorted by ``(time, link, kind)`` regardless of
    construction order, so equal event multisets compare (and fingerprint)
    equal.  ``seed`` salts the injector's per-link corruption streams —
    two plans with the same events but different seeds corrupt different
    packets.
    """

    events: tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"plan events must be FaultEvent, "
                                f"got {type(event).__name__}")
        object.__setattr__(self, "events",
                           tuple(sorted(self.events, key=_event_key)))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def links(self) -> list[str]:
        """Sorted names of every link the plan touches."""
        return sorted({event.link for event in self.events})

    @classmethod
    def generate(cls, candidates: Iterable[str], *, seed: int = 0,
                 corrupt_links: int = 1, loss_rate: float = 0.01,
                 onset_s: float = 0.0, fail_links: int = 0,
                 fail_at_s: float = 0.0,
                 repair_after_s: Optional[float] = None) -> "FaultPlan":
        """Draw a plan from a candidate link pool, deterministically.

        ``corrupt_links`` links start corrupting at ``onset_s`` with
        ``loss_rate``; ``fail_links`` *other* links go down at
        ``fail_at_s`` (and come back ``repair_after_s`` later, when set).
        All choices come from ``random.Random(seed)`` over the *sorted*
        pool, so the drawn plan is independent of candidate order.
        """
        import random

        pool = sorted(set(candidates))
        rng = random.Random(seed)
        n_corrupt = min(corrupt_links, len(pool))
        chosen_corrupt = sorted(rng.sample(pool, n_corrupt)) if n_corrupt else []
        remaining = [name for name in pool if name not in set(chosen_corrupt)]
        n_fail = min(fail_links, len(remaining))
        chosen_fail = sorted(rng.sample(remaining, n_fail)) if n_fail else []
        events = []
        for link in chosen_corrupt:
            events.append(FaultEvent(onset_s, link, "loss", loss_rate))
        for link in chosen_fail:
            events.append(FaultEvent(fail_at_s, link, "down"))
            if repair_after_s is not None:
                events.append(FaultEvent(fail_at_s + repair_after_s, link,
                                         "repair"))
        return cls(events=tuple(events), seed=seed)


@dataclass
class FaultSpec:
    """The scenario-level fault declaration (``Scenario.faults(...)``).

    Either carries an explicit :class:`FaultPlan` (``plan``) or the
    generator knobs to draw one once the topology exists
    (:meth:`resolve`).  The candidate pool defaults to the fabric's
    inter-switch links — host access links stay healthy, mirroring where
    gray failures live in practice (optics and fabric cabling).
    """

    plan: Optional[FaultPlan] = None
    seed: int = 0
    links: Optional[tuple[str, ...]] = None       # explicit candidate pool
    corrupt_links: int = 1
    loss_rate: float = 0.01
    onset_s: float = 0.0
    fail_links: int = 0
    fail_at_s: float = 0.0
    repair_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.corrupt_links < 0 or self.fail_links < 0:
            raise ValueError("corrupt_links/fail_links cannot be negative")
        if self.plan is None and self.corrupt_links:
            if not 0.0 < self.loss_rate <= 1.0:
                raise ValueError(f"loss_rate must be in (0, 1], "
                                 f"got {self.loss_rate}")
        for name, value in (("onset_s", self.onset_s),
                            ("fail_at_s", self.fail_at_s)):
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {value!r}")
        if self.repair_after_s is not None \
                and not 0.0 < self.repair_after_s < math.inf:
            raise ValueError(f"repair_after_s must be finite and positive "
                             f"when set, got {self.repair_after_s!r}")
        if self.links is not None:
            self.links = tuple(self.links)

    def resolve(self, network: "Network") -> FaultPlan:
        """The concrete plan for one built topology."""
        if self.plan is not None:
            return self.plan
        if self.links is not None:
            pool = list(self.links)
        else:
            switches = network.switches
            pool = [link.name for link in network.links
                    if link.port_a.node.name in switches
                    and link.port_b.node.name in switches]
        return FaultPlan.generate(
            pool, seed=self.seed, corrupt_links=self.corrupt_links,
            loss_rate=self.loss_rate, onset_s=self.onset_s,
            fail_links=self.fail_links, fail_at_s=self.fail_at_s,
            repair_after_s=self.repair_after_s)


@dataclass
class RemediationSpec:
    """The scenario-level remediation declaration (``Scenario.remediation``).

    ``policy`` names a registered remediation policy (see
    :data:`repro.faults.policy.POLICIES`); ``app`` names the deployed TPP
    application whose aggregators produce link verdicts (the
    loss-localization app by default).  Every ``period_s`` the controller
    polls the detector, reacts to any verdict whose tx/rx deficit is at
    least ``threshold`` packets, and records the penalty / path-diversity
    timeseries.  ``repair_time_s`` is how long a policy-disabled link
    stays down before it is repaired (cleanly — corruption cleared);
    ``min_path_diversity`` is the ToR fabric-link floor the
    capacity-constrained policy refuses to cross.
    """

    policy: str = "do-nothing"
    app: str = "loss-localization"
    period_s: float = 0.05
    threshold: int = 5
    min_path_diversity: int = 1
    repair_time_s: Optional[float] = None

    def __post_init__(self) -> None:
        from .policy import POLICIES    # deferred: policy.py imports this module
        POLICIES.get(self.policy)       # raises with the registered menu
        if not 0.0 < self.period_s < math.inf:
            raise ValueError(f"period_s must be finite and positive, "
                             f"got {self.period_s!r}")
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1 packet")
        if self.min_path_diversity < 0:
            raise ValueError("min_path_diversity cannot be negative")
        if self.repair_time_s is not None \
                and not 0.0 < self.repair_time_s < math.inf:
            raise ValueError(f"repair_time_s must be finite and positive "
                             f"when set, got {self.repair_time_s!r}")
