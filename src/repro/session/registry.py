"""Registries that make scenarios a composition problem (§2's "many tasks").

Two registries back the :class:`~repro.session.Scenario` API:

* the **topology registry** maps names like ``"dumbbell"`` to the builder
  functions in :mod:`repro.net.topology` (signature
  ``builder(sim, **kwargs) -> Network``),
* the **workload registry** maps names like ``"messages"`` to traffic
  factories (signature ``factory(experiment, **kwargs) -> handle``, where
  ``experiment`` is the live :class:`~repro.session.Experiment`).

New scenarios are one decorator away::

    @register_topology("ring")
    def build_ring(sim, num_switches=4, **switch_kwargs) -> Network:
        switches = [f"s{i}" for i in range(num_switches)]
        hosts = [f"h{i}" for i in range(num_switches)]
        links = [(h, s, mbps(100), 20e-6, None) for h, s in zip(hosts, switches)]
        links += [(s, switches[i - 1], mbps(100), 20e-6, None)
                  for i, s in enumerate(switches)]
        return build_from_rows(sim, switches, hosts, links, **switch_kwargs)

    @register_workload("replay")
    def replay_trace(experiment, *, trace, **kwargs):
        ...

Lookups raise :class:`UnknownRegistration` with the sorted list of known
names, so a typo fails with the full menu instead of a bare ``KeyError``.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = [
    "Registry", "UnknownRegistration", "DuplicateRegistration",
    "TOPOLOGIES", "WORKLOADS", "register_topology", "register_workload",
]


class UnknownRegistration(KeyError):
    """Raised when a scenario names a topology/workload nobody registered."""

    def __init__(self, kind: str, name: str, known: list[str]) -> None:
        self.kind = kind
        self.name = name
        self.known = known
        menu = ", ".join(known) if known else "<none>"
        super().__init__(f"unknown {kind} {name!r}; registered {kind}s: {menu}")

    def __str__(self) -> str:  # KeyError.__str__ repr-quotes its argument
        return self.args[0]


class DuplicateRegistration(ValueError):
    """Raised when a name is registered twice without ``overwrite=True``."""


class Registry:
    """A named collection of factory callables."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, Callable] = {}

    def register(self, name: Optional[str] = None, *, overwrite: bool = False):
        """Decorator registering a factory under ``name`` (default: its __name__).

        Usable bare (``@register_topology``) or called
        (``@register_topology("dumbbell")``).
        """
        def _register(factory: Callable, registered_name: Optional[str] = None):
            key = registered_name or getattr(factory, "__name__", None)
            if not key:
                raise ValueError(f"cannot infer a {self.kind} name for {factory!r}")
            if key in self._entries and not overwrite:
                raise DuplicateRegistration(
                    f"{self.kind} {key!r} is already registered; "
                    f"pass overwrite=True to replace it")
            self._entries[key] = factory
            return factory

        if callable(name):           # bare @register usage
            return _register(name)
        return lambda factory: _register(factory, name)

    def get(self, name: str) -> Callable:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownRegistration(self.kind, name, self.names()) from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Registry {self.kind}: {', '.join(self.names()) or '<empty>'}>"


#: The process-wide registries the Scenario API resolves names against.
TOPOLOGIES = Registry("topology")
WORKLOADS = Registry("workload")

register_topology = TOPOLOGIES.register
register_workload = WORKLOADS.register


def _register_builtin_topologies() -> None:
    """Wrap the five paper topologies from :mod:`repro.net.topology`."""
    from repro.net import topology as t

    TOPOLOGIES.register("dumbbell")(t.build_dumbbell)
    TOPOLOGIES.register("rcp-chain")(t.build_rcp_chain)
    TOPOLOGIES.register("conga")(t.build_conga_topology)
    TOPOLOGIES.register("leaf-spine")(t.build_leaf_spine)
    TOPOLOGIES.register("fat-tree")(t.build_fat_tree)


_register_builtin_topologies()
