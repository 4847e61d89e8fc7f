"""Topology construction and the :class:`Network` container.

A :class:`Network` owns the simulator, hosts, switches and links, and knows
how to compute and install shortest-path (optionally ECMP) routes into every
switch's forwarding table.  A topology is data: :func:`build_from_rows`
wires a network from a switch list, a host list and link rows
``(a, b, rate_bps, delay_s, queue_capacity_packets)``, in that order, and
installs ECMP routes.  The paper's topologies are builders that list their
rows and return ``build_from_rows(...)``:

* :func:`build_dumbbell` — Figure 1's six-host dumbbell,
* :func:`build_rcp_chain` — Figure 2's two-bottleneck chain,
* :func:`build_conga_topology` — Figure 4's two-leaf/two-spine pod,
* :func:`build_leaf_spine` and :func:`build_fat_tree` — larger fabrics used by
  the measurement/sketch experiments and the scale tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from .link import Link, mbps
from .node import Host, Node
from .sim import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.switches.switch import TPPSwitch


@dataclass
class Network:
    """A simulated network: nodes, links and route computation."""

    sim: Simulator
    hosts: dict[str, Host] = field(default_factory=dict)
    switches: dict[str, "TPPSwitch"] = field(default_factory=dict)
    links: list[Link] = field(default_factory=list)
    _next_switch_id: int = 1

    # ------------------------------------------------------------- build-up
    def add_host(self, name: str) -> Host:
        if name in self.hosts or name in self.switches:
            raise ValueError(f"duplicate node name {name!r}")
        host = Host(self.sim, name)
        self.hosts[name] = host
        return host

    def add_switch(self, name: str, **kwargs) -> "TPPSwitch":
        # Imported lazily: the switch model depends on repro.net primitives,
        # so a module-level import here would create an import cycle.
        from repro.switches.switch import TPPSwitch

        if name in self.hosts or name in self.switches:
            raise ValueError(f"duplicate node name {name!r}")
        switch = TPPSwitch(self.sim, name, switch_id=self._next_switch_id, **kwargs)
        self._next_switch_id += 1
        self.switches[name] = switch
        return switch

    def node(self, name: str) -> Node:
        if name in self.hosts:
            return self.hosts[name]
        if name in self.switches:
            return self.switches[name]
        raise KeyError(f"unknown node {name!r}")

    @property
    def nodes(self) -> dict[str, Node]:
        merged: dict[str, Node] = {}
        merged.update(self.hosts)
        merged.update(self.switches)
        return merged

    def connect(self, name_a: str, name_b: str, rate_bps: float = mbps(100),
                delay_s: float = 10e-6, queue_capacity_bytes: int = 512 * 1024,
                queue_capacity_packets: Optional[int] = None) -> Link:
        """Create a full-duplex link between two named nodes."""
        node_a, node_b = self.node(name_a), self.node(name_b)
        port_a = node_a.add_port(queue_capacity_bytes, queue_capacity_packets)
        port_b = node_b.add_port(queue_capacity_bytes, queue_capacity_packets)
        link = Link(port_a, port_b, rate_bps=rate_bps, delay_s=delay_s,
                    name=f"{name_a}<->{name_b}")
        self.links.append(link)
        return link

    # ----------------------------------------------------------- adjacency
    def neighbors(self, name: str) -> list[tuple[str, int]]:
        """(neighbor name, local port index) pairs for a node."""
        node = self.node(name)
        result = []
        for port in node.ports:
            if port.peer is not None:
                result.append((port.peer.node.name, port.index))
        return result

    def up_neighbors(self, name: str) -> list[tuple[str, int]]:
        """Like :meth:`neighbors`, but only over currently-usable links.

        A link is usable when the link itself and both endpoint ports are
        up.  Routing uses this view, so recomputing routes after a failure
        steers around it.
        """
        node = self.node(name)
        result = []
        for port in node.ports:
            peer = port.peer
            if (peer is not None and port.up and peer.up
                    and port.link is not None and port.link.up):
                result.append((peer.node.name, port.index))
        return result

    def ports_towards(self, name: str, neighbor: str) -> list[int]:
        """Local port indices on ``name`` whose peer is ``neighbor``."""
        return [idx for peer, idx in self.neighbors(name) if peer == neighbor]

    def link_between(self, name_a: str, name_b: str) -> Optional[Link]:
        for link in self.links:
            ends = {link.port_a.node.name, link.port_b.node.name}
            if ends == {name_a, name_b}:
                return link
        return None

    # --------------------------------------------------------------- routing
    def hop_distances_to(self, destination: str) -> dict[str, int]:
        """BFS hop counts from every node to ``destination``.

        Only usable (up) links count: a node cut off by failures simply
        does not appear in the result.
        """
        if destination not in self.hosts and destination not in self.switches:
            raise ValueError(f"unknown destination {destination!r}")
        return _hop_distances(destination, self.up_neighbors)

    def install_shortest_path_routes(self, group_policy: str = "hash") -> None:
        """Compute shortest paths to every host and install forwarding state.

        Routing runs once, when the network is built.  When a switch has
        several equal-cost next hops towards a destination, the route
        resolves through a multipath group (selection policy
        ``group_policy``); a switch holds one group per distinct port set,
        numbered from 1000 in the order the routes first need them.  Routes
        go around down links.  Raises ``ValueError`` when a switch already
        holds forwarding entries.
        """
        if any(switch.pipeline.forwarding_table.entries
               for switch in self.switches.values()):
            raise ValueError("routes are already installed; routing runs once")
        # Routing changes no link state: one adjacency serves every BFS.
        adjacency = {name: self.up_neighbors(name) for name in self.nodes}
        group_ids: dict[tuple[str, tuple[int, ...]], int] = {}
        next_group_id = dict.fromkeys(self.switches, 1000)
        for dst_name in self.hosts:
            distances = _hop_distances(dst_name, adjacency.__getitem__)
            for switch_name, switch in self.switches.items():
                if switch_name not in distances:
                    continue
                my_distance = distances[switch_name]
                candidate_ports = tuple(
                    port_index for neighbor, port_index in adjacency[switch_name]
                    if distances.get(neighbor, float("inf")) == my_distance - 1)
                if not candidate_ports:
                    continue
                if len(candidate_ports) == 1:
                    switch.install_route(dst_name, candidate_ports[0])
                    continue
                group_id = group_ids.get((switch_name, candidate_ports))
                if group_id is None:
                    group_id = next_group_id[switch_name]
                    next_group_id[switch_name] += 1
                    switch.install_group(group_id, list(candidate_ports),
                                         policy=group_policy)
                    group_ids[switch_name, candidate_ports] = group_id
                switch.install_group_route(dst_name, group_id)

    def compute_path(self, src: str, dst: str) -> list[str]:
        """One shortest path (node names, inclusive) from ``src`` to ``dst``."""
        distances = self.hop_distances_to(dst)
        if src not in distances:
            raise ValueError(f"no path from {src} to {dst}")
        path = [src]
        current = src
        while current != dst:
            for neighbor, _ in self.up_neighbors(current):
                if distances.get(neighbor, float("inf")) == distances[current] - 1:
                    path.append(neighbor)
                    current = neighbor
                    break
            else:  # pragma: no cover - disconnected mid-walk
                raise ValueError(f"routing walk stuck at {current}")
        return path

    def stop_switch_processes(self) -> None:
        """Stop periodic per-switch statistics updaters (keeps run_until_idle finite)."""
        for switch in self.switches.values():
            switch.stop()


def _hop_distances(destination: str,
                   neighbors: Callable[[str], list[tuple[str, int]]]) -> dict[str, int]:
    """BFS hop counts to ``destination`` over ``neighbors(name)`` pairs."""
    distances = {destination: 0}
    frontier = deque([destination])
    while frontier:
        current = frontier.popleft()
        for neighbor, _ in neighbors(current):
            if neighbor not in distances:
                distances[neighbor] = distances[current] + 1
                frontier.append(neighbor)
    return distances


# ---------------------------------------------------------------------------
# Topology builders used by the paper's experiments
# ---------------------------------------------------------------------------
#: One full-duplex link: ``(a, b, rate_bps, delay_s, queue_capacity_packets)``.
LinkRow = tuple[str, str, float, float, Optional[int]]


def build_from_rows(sim: Simulator, switches: list[str], hosts: list[str],
                    links: list[LinkRow], *, group_policy: str = "hash",
                    **switch_kwargs) -> Network:
    """Wire a network from rows and install ECMP shortest-path routes.

    Switches are added in list order (so switch ids follow it), then the
    hosts, then one link per row in row order (so each node's port indices
    follow the order of its rows).  Every switch gets ``switch_kwargs``;
    multipath groups select with ``group_policy``.  Raises ``ValueError``
    when there is no host, or when the links leave a node unreachable.
    """
    if not hosts:
        raise ValueError("a topology needs at least one host")
    net = Network(sim)
    for name in switches:
        net.add_switch(name, **switch_kwargs)
    for name in hosts:
        net.add_host(name)
    for a, b, rate_bps, delay_s, queue_capacity_packets in links:
        net.connect(a, b, rate_bps=rate_bps, delay_s=delay_s,
                    queue_capacity_packets=queue_capacity_packets)
    unreachable = net.nodes.keys() - net.hop_distances_to(hosts[0]).keys()
    if unreachable:
        raise ValueError(f"links leave {sorted(unreachable)} unreachable "
                         f"from host {hosts[0]!r}")
    net.install_shortest_path_routes(group_policy=group_policy)
    return net


def build_dumbbell(sim: Simulator, hosts_per_side: int = 3,
                   link_rate_bps: float = mbps(100), link_delay_s: float = 50e-6,
                   queue_capacity_packets: Optional[int] = None,
                   **switch_kwargs) -> Network:
    """Figure 1's topology: two switches, ``hosts_per_side`` hosts on each."""
    link = (link_rate_bps, link_delay_s, queue_capacity_packets)
    hosts = [f"h{i}" for i in range(2 * hosts_per_side)]
    links = [(host, "s0" if i < hosts_per_side else "s1", *link)
             for i, host in enumerate(hosts)]
    links.append(("s0", "s1", *link))
    return build_from_rows(sim, ["s0", "s1"], hosts, links, **switch_kwargs)


def build_rcp_chain(sim: Simulator, link_rate_bps: float = mbps(100),
                    link_delay_s: float = 100e-6, **switch_kwargs) -> Network:
    """Figure 2's traffic pattern: flow *a* crosses two bottlenecks, *b* and *c* one each.

    Topology::

        ha --- s0 ======= s1 ======= s2 --- ha_dst
        hb --- s0                    s2 --- hb_dst   (flow b uses s0-s1)
               hc --- s1             s2 --- hc_dst   (flow c uses s1-s2)

    The two switch-switch links (s0-s1 and s1-s2) are the shared bottlenecks.
    """
    edge = (link_rate_bps * 10, link_delay_s, None)     # non-bottleneck edges
    core = (link_rate_bps, link_delay_s, None)
    links = [(host, switch, *edge) for host, switch in (
        ("ha", "s0"), ("hb", "s0"), ("hc", "s1"), ("hb_dst", "s1"),
        ("ha_dst", "s2"), ("hc_dst", "s2"))]
    links += [("s0", "s1", *core), ("s1", "s2", *core)]
    return build_from_rows(sim, ["s0", "s1", "s2"],
                           ["ha", "hb", "hc", "ha_dst", "hb_dst", "hc_dst"],
                           links, **switch_kwargs)


def build_conga_topology(sim: Simulator, link_rate_bps: float = mbps(100),
                         link_delay_s: float = 20e-6,
                         group_policy: str = "dport",
                         **switch_kwargs) -> Network:
    """Figure 4's example: leaves L0, L1, L2 and spines S0, S1.

    L0 has a single path to L2 (via S0); L1 has two paths to L2 (via S0 or
    S1).  Each leaf has one attached host (``hl0``, ``hl1``, ``hl2``).
    Multipath selection at the leaves uses ``group_policy`` so end-hosts can
    steer flowlets by changing the corresponding header field.
    """
    edge = (link_rate_bps * 10, link_delay_s, None)
    core = (link_rate_bps, link_delay_s, None)
    links = [(f"hl{i}", f"L{i}", *edge) for i in range(3)]
    # L0 only attaches to S0 (single path), L1 attaches to both spines.
    links += [(leaf, spine, *core) for leaf, spine in (
        ("L0", "S0"), ("L1", "S0"), ("L1", "S1"), ("L2", "S0"), ("L2", "S1"))]
    return build_from_rows(sim, ["L0", "L1", "L2", "S0", "S1"],
                           ["hl0", "hl1", "hl2"], links,
                           group_policy=group_policy, **switch_kwargs)


def build_leaf_spine(sim: Simulator, num_leaves: int = 4, num_spines: int = 2,
                     hosts_per_leaf: int = 4, link_rate_bps: float = mbps(100),
                     link_delay_s: float = 20e-6, group_policy: str = "hash",
                     **switch_kwargs) -> Network:
    """A generic leaf-spine fabric (used by the sketch/measurement experiments)."""
    link = (link_rate_bps, link_delay_s, None)
    spines = [f"spine{i}" for i in range(num_spines)]
    leaves = [f"leaf{i}" for i in range(num_leaves)]
    hosts: list[str] = []
    links: list[LinkRow] = []
    for leaf_index, leaf in enumerate(leaves):
        for h in range(hosts_per_leaf):
            hosts.append(f"h{leaf_index}_{h}")
            links.append((hosts[-1], leaf, *link))
        links += [(leaf, spine, *link) for spine in spines]
    return build_from_rows(sim, spines + leaves, hosts, links,
                           group_policy=group_policy, **switch_kwargs)


def build_fat_tree(sim: Simulator, k: int = 4, link_rate_bps: float = mbps(100),
                   link_delay_s: float = 20e-6, **switch_kwargs) -> Network:
    """A k-ary fat tree (k even): (k/2)^2 core switches, k pods of k switches.

    Hosts: k^3/4.  Used by scale-oriented tests and the sketch experiment's
    "core links" scenario; k=4 keeps simulations tractable.
    """
    if k % 2:
        raise ValueError("fat-tree k must be even")
    link = (link_rate_bps, link_delay_s, None)
    half = k // 2
    cores = [f"core{i}" for i in range(half * half)]
    switches = list(cores)
    hosts: list[str] = []
    links: list[LinkRow] = []
    for pod in range(k):
        aggs = [f"agg{pod}_{i}" for i in range(half)]
        edges = [f"edge{pod}_{i}" for i in range(half)]
        switches += aggs + edges
        for edge_index, edge in enumerate(edges):
            for h in range(half):
                hosts.append(f"h{pod}_{edge_index}_{h}")
                links.append((hosts[-1], edge, *link))
            links += [(edge, agg, *link) for agg in aggs]
        links += [(agg, cores[agg_index * half + c], *link)
                  for agg_index, agg in enumerate(aggs) for c in range(half)]
    return build_from_rows(sim, switches, hosts, links, **switch_kwargs)
