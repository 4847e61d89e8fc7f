"""Tests for the Network container, route computation and topology builders."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.net.link import mbps
from repro.net.packet import udp_packet
from repro.net.sim import Simulator
from repro.net.topology import (Network, build_conga_topology, build_dumbbell,
                                build_fat_tree, build_from_rows, build_leaf_spine,
                                build_rcp_chain)
from repro.session import Scenario


class TestNetworkBasics:
    def test_duplicate_names_rejected(self):
        net = Network(Simulator())
        net.add_host("x")
        with pytest.raises(ValueError):
            net.add_host("x")
        with pytest.raises(ValueError):
            net.add_switch("x")

    def test_node_lookup(self):
        net = Network(Simulator())
        net.add_host("h")
        net.add_switch("s")
        assert net.node("h") is net.hosts["h"]
        assert net.node("s") is net.switches["s"]
        with pytest.raises(KeyError):
            net.node("missing")
        assert set(net.nodes) == {"h", "s"}

    def test_connect_creates_ports_and_link(self):
        net = Network(Simulator())
        net.add_host("a")
        net.add_host("b")
        link = net.connect("a", "b", rate_bps=mbps(50), delay_s=2e-6)
        assert link.rate_bps == mbps(50)
        assert net.ports_towards("a", "b") == [0]
        assert net.neighbors("a") == [("b", 0)]
        assert net.link_between("a", "b") is link
        assert net.link_between("a", "zzz") is None

    def test_switch_ids_are_sequential_and_unique(self):
        net = Network(Simulator())
        ids = [net.add_switch(f"s{i}").switch_id for i in range(4)]
        assert len(set(ids)) == 4


class TestRouting:
    def _line(self):
        net = Network(Simulator())
        for name in ("h0", "h1"):
            net.add_host(name)
        for name in ("s0", "s1"):
            net.add_switch(name)
        net.connect("h0", "s0")
        net.connect("s0", "s1")
        net.connect("s1", "h1")
        return net

    def test_hop_distances(self):
        net = self._line()
        distances = net.hop_distances_to("h1")
        assert distances["h1"] == 0
        assert distances["s1"] == 1
        assert distances["s0"] == 2
        assert distances["h0"] == 3

    def test_compute_path(self):
        net = self._line()
        assert net.compute_path("h0", "h1") == ["h0", "s0", "s1", "h1"]
        with pytest.raises(ValueError):
            Network(Simulator()).compute_path("a", "b")

    def test_installed_routes_deliver_traffic_both_ways(self):
        net = self._line()
        net.install_shortest_path_routes()
        sim = net.sim
        net.hosts["h0"].send(udp_packet("h0", "h1", 100))
        net.hosts["h1"].send(udp_packet("h1", "h0", 100))
        sim.run(until=0.05)
        assert net.hosts["h1"].packets_received == 1
        assert net.hosts["h0"].packets_received == 1

    def test_ecmp_groups_installed_for_equal_cost_paths(self):
        net = Network(Simulator())
        net.add_host("src")
        net.add_host("dst")
        for name in ("left", "spine_a", "spine_b", "right"):
            net.add_switch(name)
        net.connect("src", "left")
        net.connect("left", "spine_a")
        net.connect("left", "spine_b")
        net.connect("spine_a", "right")
        net.connect("spine_b", "right")
        net.connect("right", "dst")
        net.install_shortest_path_routes(ecmp=True)
        left = net.switches["left"]
        entry = left.pipeline.forwarding_table.lookup(udp_packet("src", "dst", 10))
        assert entry.action == "group"
        group = left.group_table.groups[entry.group_id]
        assert sorted(group.ports) == sorted(net.ports_towards("left", "spine_a")
                                             + net.ports_towards("left", "spine_b"))

    def test_ecmp_disabled_picks_single_port(self):
        net = Network(Simulator())
        net.add_host("src")
        net.add_host("dst")
        for name in ("left", "a", "b", "right"):
            net.add_switch(name)
        net.connect("src", "left")
        net.connect("left", "a")
        net.connect("left", "b")
        net.connect("a", "right")
        net.connect("b", "right")
        net.connect("right", "dst")
        net.install_shortest_path_routes(ecmp=False)
        entry = net.switches["left"].pipeline.forwarding_table.lookup(udp_packet("src", "dst", 10))
        assert entry.action == "forward"


class TestBuilders:
    def test_dumbbell_shape(self):
        net = build_dumbbell(Simulator(), hosts_per_side=3)
        assert len(net.hosts) == 6
        assert len(net.switches) == 2
        assert net.link_between("s0", "s1") is not None

    def test_dumbbell_end_to_end(self):
        sim = Simulator()
        net = build_dumbbell(sim)
        net.hosts["h0"].send(udp_packet("h0", "h5", 100))
        sim.run(until=0.05)
        assert net.hosts["h5"].packets_received == 1

    def test_rcp_chain_paths(self):
        net = build_rcp_chain(Simulator())
        assert net.compute_path("ha", "ha_dst") == ["ha", "s0", "s1", "s2", "ha_dst"]
        assert net.compute_path("hb", "hb_dst") == ["hb", "s0", "s1", "hb_dst"]
        assert net.compute_path("hc", "hc_dst") == ["hc", "s1", "s2", "hc_dst"]

    def test_rcp_chain_bottlenecks_are_core_links(self):
        net = build_rcp_chain(Simulator(), link_rate_bps=mbps(10))
        assert net.link_between("s0", "s1").rate_bps == mbps(10)
        assert net.link_between("ha", "s0").rate_bps == mbps(100)

    def test_conga_topology_has_two_paths_from_l1(self):
        net = build_conga_topology(Simulator())
        entry = net.switches["L1"].pipeline.forwarding_table.lookup(
            udp_packet("hl1", "hl2", 10))
        assert entry.action == "group"
        assert net.switches["L0"].pipeline.forwarding_table.lookup(
            udp_packet("hl0", "hl2", 10)).action == "forward"

    def test_leaf_spine_counts(self):
        net = build_leaf_spine(Simulator(), num_leaves=3, num_spines=2, hosts_per_leaf=2)
        assert len(net.hosts) == 6
        assert len(net.switches) == 5

    def test_fat_tree_counts(self):
        net = build_fat_tree(Simulator(), k=4)
        assert len(net.hosts) == 16          # k^3 / 4
        assert len(net.switches) == 20       # 4 core + 8 agg + 8 edge
        with pytest.raises(ValueError):
            build_fat_tree(Simulator(), k=3)

    def test_fat_tree_connectivity(self):
        sim = Simulator()
        net = build_fat_tree(sim, k=4)
        src, dst = list(net.hosts)[0], list(net.hosts)[-1]
        net.hosts[src].send(udp_packet(src, dst, 100))
        sim.run(until=0.1)
        assert net.hosts[dst].packets_received == 1


def wiring_tables(network):
    """What a TPP or a route can see of the wiring: switch name -> id,
    (node, port index) -> peer name, and each link's rate, delay and both
    ends' queue capacities, all in creation order."""
    switch_ids = {name: switch.switch_id for name, switch in network.switches.items()}
    peers = {(name, port.index): port.peer.node.name
             for name, node in network.nodes.items() for port in node.ports}
    links = [(link.name, link.rate_bps, link.delay_s,
              link.port_a.capacity_packets, link.port_a.capacity_bytes,
              link.port_b.capacity_packets, link.port_b.capacity_bytes)
             for link in network.links]
    return switch_ids, peers, links


class TestWiringPin:
    """Each registered builder's wiring, pinned as a blake2b of
    ``wiring_tables``.  Switch ids and port indices are TPP-readable
    (``[Switch:SwitchID]``, ``[PacketMetadata:OutputPort]``), so a moved
    pin means the builder changed what a TPP reads — fix the builder; do
    not re-pin.  To see what moved, diff ``wiring_tables`` against the
    parent commit's."""

    PINS = [
        ("dumbbell", {}, "266ad1003d1ea6976fa33ec17d6befe9", (2, 14, 7)),
        ("dumbbell", {"hosts_per_side": 2, "queue_capacity_packets": 8},
         "2e803bef8d52e59ce587923e796c1520", (2, 10, 5)),
        ("rcp-chain", {}, "37a4b0359cfbe8f6ae58d8e0c882f5de", (3, 16, 8)),
        ("conga", {}, "da4952a00999b418a86a737d1ef8570b", (5, 16, 8)),
        ("leaf-spine", {}, "a44c18c0fc7cfc9588d3e203c17162e5", (6, 48, 24)),
        ("fat-tree", {"k": 4}, "185d49d9296537ec11ed615fbb1aa23e", (20, 96, 48)),
    ]

    @pytest.mark.parametrize("topology,kwargs,digest,counts", PINS,
                             ids=[f"{pin[0]}{pin[1] or ''}" for pin in PINS])
    def test_wiring_is_pinned(self, topology, kwargs, digest, counts):
        network = Scenario(topology, stacks=False, **kwargs).build().network
        switch_ids, peers, links = wiring_tables(network)
        assert (len(switch_ids), len(peers), len(links)) == counts
        tables = repr((switch_ids, peers, links)).encode()
        assert hashlib.blake2b(tables, digest_size=16).hexdigest() == digest


@st.composite
def row_sets(draw):
    """``(switches, hosts, links)``: a connected switch graph (a random
    spanning tree plus extra edges, so cycles and parallel links), one link
    per host, and every row in a random order."""
    count = draw(st.integers(1, 6))
    switches = [f"s{i}" for i in range(count)]
    pairs = [(switches[i], switches[draw(st.integers(0, i - 1))])
             for i in range(1, count)]
    for _ in range(draw(st.integers(0, 6)) if count > 1 else 0):
        a = draw(st.integers(0, count - 1))
        pairs.append((switches[a], switches[(a + draw(st.integers(1, count - 1))) % count]))
    hosts = [f"h{i}" for i in range(draw(st.integers(2, 6)))]
    pairs += [(host, draw(st.sampled_from(switches))) for host in hosts]
    queue = st.sampled_from([None, 4])
    links = [(*draw(st.permutations(pair)), mbps(100), 10e-6, draw(queue))
             for pair in pairs]
    return switches, hosts, draw(st.permutations(links))


def forwarding_walks(network, src, dst):
    """Follow every installed entry and every port of each ECMP group from
    ``src``'s switch; yields each branch's node path, which ends at a host,
    at a revisited switch, or at a switch with no route."""
    packet = udp_packet(src, dst, 10)
    stack = [[src, network.hosts[src].ports[0].peer.node.name]]
    while stack:
        path = stack.pop()
        switch = network.switches[path[-1]]
        entry = switch.pipeline.forwarding_table.lookup(packet)
        if entry is None:
            yield path
            continue
        ports = ([entry.output_port] if entry.action == "forward"
                 else switch.group_table.groups[entry.group_id].ports)
        for index in ports:
            peer = switch.ports[index].peer.node.name
            if peer in network.switches and peer not in path:
                stack.append(path + [peer])
            else:
                yield path + [peer]


class TestBuildFromRows:
    @given(row_sets())
    def test_ids_ports_and_routes_follow_the_rows(self, rows):
        switches, hosts, links = rows
        network = build_from_rows(Simulator(), switches, hosts, links)
        assert list(network.switches) == switches
        assert [network.switches[name].switch_id for name in switches] == \
            list(range(1, len(switches) + 1))
        for name, node in network.nodes.items():
            expected = [b if a == name else a for a, b, *_ in links if name in (a, b)]
            assert [port.peer.node.name for port in node.ports] == expected
        assert [(link.port_a.node.name, link.port_b.node.name, link.rate_bps,
                 link.delay_s, link.port_a.capacity_packets, link.port_b.capacity_packets)
                for link in network.links] == [(*row, row[-1]) for row in links]
        for src in hosts:
            for dst in hosts:
                if src == dst:
                    continue
                for path in forwarding_walks(network, src, dst):
                    assert len(set(path)) == len(path), path      # no loop
                    assert path[-1] == dst, path

    # The three scenarios used to die in the messages workload with a bare
    # StopIteration (no host) or run on islands of leaves (no spine).
    @pytest.mark.parametrize("topology,kwargs,message", [
        ("leaf-spine", {"hosts_per_leaf": 0}, "at least one host"),
        ("fat-tree", {"k": 0}, "at least one host"),
        ("leaf-spine", {"num_spines": 0}, "unreachable"),
    ])
    def test_hostless_or_disconnected_scenarios_fail_at_build(self, topology, kwargs,
                                                              message):
        scenario = Scenario(topology, **kwargs).workload("messages")
        with pytest.raises(ValueError, match=message):
            scenario.run(duration_s=0.01)
