"""The :class:`FaultInjector`: replays a :class:`~repro.faults.plan.FaultPlan`.

The injector binds a plan to a built :class:`~repro.net.topology.Network`,
resolving every event's link name eagerly (a typo fails at build time with
the full link menu), and schedules one simulator event per plan entry.
Applying an event mutates the link's degradation state
(:meth:`~repro.net.link.Link.set_loss` / ``set_down`` / ``set_up``).

Determinism: each corrupting link gets its *own* ``random.Random`` stream,
seeded from ``blake2b(f"{plan.seed}:{link.name}")`` — so which packets a
link corrupts depends only on the plan seed and the link's traffic, never
on how many other links are degraded or in what order events fire.  An
empty plan schedules nothing and draws nothing: the run is byte-identical
to one with no fault plane at all.
"""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING

from .plan import FaultEvent, FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.net.sim import Simulator
    from repro.net.topology import Network

__all__ = ["FaultInjector", "link_rng"]


def link_rng(seed: int, link_name: str) -> random.Random:
    """The per-link corruption stream: stable in (plan seed, link name)."""
    digest = hashlib.blake2b(f"{seed}:{link_name}".encode(),
                             digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


class FaultInjector:
    """Schedules and applies a fault plan's events on a live network."""

    def __init__(self, network: "Network", plan: FaultPlan) -> None:
        self.network = network
        self.plan = plan
        self.events_applied = 0
        self._links: dict[str, "Link"] = {}
        by_name = {link.name: link for link in network.links}
        for name in plan.links():
            if name not in by_name:
                menu = ", ".join(sorted(by_name)) or "<none>"
                raise ValueError(f"fault plan names unknown link {name!r}; "
                                 f"network links: {menu}")
            self._links[name] = by_name[name]
        self._rngs: dict[str, random.Random] = {}

    def schedule(self, sim: "Simulator") -> None:
        """Register every plan event with the simulator (one pass)."""
        for event in self.plan.events:
            sim.schedule_at(event.time, self._apply, event)

    def _apply(self, event: FaultEvent) -> None:
        link = self._links[event.link]
        if event.kind == "loss":
            rng = self._rngs.get(event.link)
            if rng is None:
                rng = self._rngs[event.link] = link_rng(self.plan.seed,
                                                        event.link)
            link.set_loss(event.loss_rate, rng=rng)
        elif event.kind == "down":
            link.set_down()
        else:                                     # "repair"
            link.set_up()
            link.clear_loss()
        self.events_applied += 1

    def counters(self) -> dict[str, int]:
        """Plan events applied so far (``faults.<name>``)."""
        return {"events_applied": self.events_applied}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FaultInjector {len(self.plan)} events over "
                f"{len(self._links)} links, applied={self.events_applied}>")
