"""Tests for flow tables, group tables and the match-action pipeline.

``TestFlowIndex`` holds :class:`FlowTable`'s exact-match index to a linear
scan (``ScanTable``, the table as a sorted list searched front to back)
over random install/remove sequences.  ``REPRO_HYPOTHESIS_PROFILE=quick``
shrinks the sweep for CI's docs job.
"""

import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.net.packet import Packet, udp_packet
from repro.net.sim import Simulator
from repro.net.topology import build_fat_tree
from repro.switches.counters import StatsBlock
from repro.switches.pipeline import Pipeline
from repro.switches.switch import TPPSwitch
from repro.switches.tables import (FlowEntry, FlowTable, Group, GroupTable,
                                   select_by_dport, select_by_hash, select_by_vlan)


def matches(entry: FlowEntry, packet: Packet) -> bool:
    """The scan's match test: every matched field equal (a missing one reads None)."""
    for field_name, expected in entry.match.items():
        if getattr(packet, field_name, None) != expected:
            return False
    return True


class ScanTable:
    """The oracle: a list re-sorted on every install and scanned on lookup."""

    def __init__(self) -> None:
        self.entries: list[FlowEntry] = []
        self.version = 1
        self.lookup_stats = StatsBlock()
        self.match_stats = StatsBlock()

    def install(self, entry: FlowEntry) -> FlowEntry:
        entry.version = self.version + 1
        self.entries.append(entry)
        self.entries.sort(key=lambda e: -e.priority)
        self.version += 1
        return entry

    def remove(self, entry_id: int) -> bool:
        before = len(self.entries)
        self.entries = [e for e in self.entries if e.entry_id != entry_id]
        if len(self.entries) != before:
            self.version += 1
            return True
        return False

    def lookup(self, packet: Packet):
        self.lookup_stats.count(packet.size)
        for entry in self.entries:
            if matches(entry, packet):
                entry.stats.count(packet.size)
                self.match_stats.count(packet.size)
                return entry
        return None


#: The fields a random entry may match on, and the values it may require:
#: flow fields, and ``size``, which two packets of one flow need not share.
MATCH_VALUES = {"dst": ["h1", "h2", "h3"], "dport": [80, 81],
                "protocol": ["udp", "tcp"], "size": [142, 842]}

#: Every packet each step looks up (sizes 142 and 842 on the wire).
PROBES = [Packet(src="h0", dst=dst, size=size, protocol=protocol, dport=dport)
          for dst in ("h1", "h2", "h3", "h9") for dport in (80, 81)
          for protocol in ("udp", "tcp") for size in (142, 842)]

matches_st = st.fixed_dictionaries(
    {}, optional={name: st.sampled_from(values) for name, values in MATCH_VALUES.items()})
install_st = st.tuples(st.just("install"), matches_st, st.integers(0, 3),
                       st.sampled_from(["forward", "drop", "group"]))
# Entry ids run 1, 2, ... in install order; 0 is never installed.
remove_st = st.tuples(st.just("remove"), st.integers(0, 20))


def observe(table) -> tuple:
    """Everything a TPP or a caller can read off a table."""
    return (table.version,
            (table.lookup_stats.packets, table.lookup_stats.bytes),
            (table.match_stats.packets, table.match_stats.bytes),
            [(e.entry_id, e.version, e.stats.packets, e.stats.bytes)
             for e in table.entries])


class TestFlowTable:
    def test_lookup_matches_on_fields(self):
        table = FlowTable()
        entry = table.install(FlowEntry(match={"dst": "h1"}, action="forward", output_port=2))
        packet = udp_packet("h0", "h1", 100)
        assert table.lookup(packet) is entry
        assert table.lookup(udp_packet("h0", "h2", 100)) is None

    def test_priority_order(self):
        table = FlowTable()
        low = table.install(FlowEntry(match={"dst": "h1"}, action="forward",
                                      output_port=1, priority=1))
        high = table.install(FlowEntry(match={"dst": "h1", "dport": 80}, action="drop",
                                       priority=10))
        assert table.lookup(udp_packet("h0", "h1", 100, dport=80)) is high
        assert table.lookup(udp_packet("h0", "h1", 100, dport=81)) is low

    def test_version_increases_on_install_and_remove(self):
        table = FlowTable()
        v0 = table.version
        entry = table.install(FlowEntry(match={"dst": "h1"}, action="forward", output_port=0))
        assert table.version == v0 + 1
        assert table.remove(entry.entry_id)
        assert table.version == v0 + 2
        assert not table.remove(12345)

    def test_statistics_updated(self):
        table = FlowTable()
        table.install(FlowEntry(match={"dst": "h1"}, action="forward", output_port=0))
        matched = udp_packet("h0", "h1", 100)
        missed = udp_packet("h0", "h9", 100)
        table.lookup(matched)
        table.lookup(missed)
        assert table.lookup_stats.packets == 2
        assert table.match_stats.packets == 1
        assert table.entries[0].stats.packets == 1

    def test_entry_ids_unique_and_reference_count(self):
        table = FlowTable()
        first = table.install(FlowEntry(match={"dst": "a"}, action="forward", output_port=0))
        second = table.install(FlowEntry(match={"dst": "b"}, action="forward", output_port=1))
        assert first.entry_id != second.entry_id
        assert table.reference_count == 2


class TestGroups:
    def test_vlan_selection(self):
        assert select_by_vlan(udp_packet("a", "b", 10, vlan=3), [10, 11], 0) == 11
        assert select_by_vlan(udp_packet("a", "b", 10, vlan=2), [10, 11], 0) == 10

    def test_dport_selection(self):
        assert select_by_dport(udp_packet("a", "b", 10, dport=7), [0, 1], 0) == 1

    def test_hash_selection_is_deterministic_per_flow(self):
        packet = udp_packet("a", "b", 10, sport=1234, dport=80)
        same = udp_packet("a", "b", 10, sport=1234, dport=80)
        choices = [0, 1, 2, 3]
        assert select_by_hash(packet, choices, 0) == select_by_hash(same, choices, 0)

    def test_hash_selection_spreads_flows(self):
        choices = [0, 1, 2, 3]
        picks = {select_by_hash(udp_packet("a", "b", 10, dport=port), choices, 0)
                 for port in range(200)}
        assert len(picks) == len(choices)

    def test_group_table_lookup(self):
        table = GroupTable()
        table.install(Group(group_id=5, ports=[1, 2], policy="vlan"))
        assert 5 in table
        assert table.select(5, udp_packet("a", "b", 10, vlan=1)) == 2
        with pytest.raises(KeyError):
            table.select(6, udp_packet("a", "b", 10))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Group(group_id=1, ports=[0], policy="bogus").select(udp_packet("a", "b", 10))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            Group(group_id=1, ports=[]).select(udp_packet("a", "b", 10))

    def test_install_rejects_an_unknown_policy(self):
        table = GroupTable()
        with pytest.raises(ValueError, match="group 78.*'bogus'"):
            table.install(Group(group_id=78, ports=[1], policy="bogus"))
        assert 78 not in table

    def test_install_rejects_an_empty_port_list(self):
        table = GroupTable()
        with pytest.raises(ValueError, match="group 78 has no ports"):
            table.install(Group(group_id=78, ports=[]))
        assert 78 not in table

    def test_switch_rejects_a_bad_group_before_any_packet(self):
        switch = TPPSwitch(Simulator(), "s", switch_id=1)
        with pytest.raises(ValueError, match="group 78"):
            switch.install_group(78, [1], policy="bogus")
        with pytest.raises(ValueError, match="group 79"):
            switch.install_group(79, [])
        switch.stop()


class TestPipeline:
    def test_needs_at_least_one_stage(self):
        with pytest.raises(ValueError):
            Pipeline(num_stages=0)

    def test_first_matching_stage_wins(self):
        pipeline = Pipeline(num_stages=3)
        pipeline.stages[1].table.install(
            FlowEntry(match={"dst": "h1"}, action="forward", output_port=4))
        entry, stage = pipeline.process(udp_packet("h0", "h1", 100))
        assert (entry.action, entry.output_port, stage) == ("forward", 4, 1)

    def test_each_searched_table_counts_a_lookup(self):
        pipeline = Pipeline(num_stages=3)
        pipeline.stages[0].table.install(
            FlowEntry(match={"dst": "h2"}, action="forward", output_port=1))
        pipeline.stages[1].table.install(
            FlowEntry(match={"dst": "h1"}, action="forward", output_port=4))
        for _ in range(3):
            pipeline.process(udp_packet("h0", "h1", 100))
        first, second, empty = (stage.table for stage in pipeline.stages)
        assert (first.lookup_stats.packets, first.match_stats.packets) == (3, 0)
        assert (second.lookup_stats.packets, second.match_stats.packets) == (3, 3)
        assert second.entries[0].stats.bytes == 3 * 142
        assert empty.lookup_stats.packets == 0

    def test_no_match(self):
        assert Pipeline().process(udp_packet("a", "b", 10)) == (None, None)

    def test_drop_action(self):
        pipeline = Pipeline()
        pipeline.forwarding_table.install(FlowEntry(match={"dst": "bad"}, action="drop"))
        entry, _ = pipeline.process(udp_packet("a", "bad", 10))
        assert entry.action == "drop"

    def test_group_action(self):
        pipeline = Pipeline()
        pipeline.forwarding_table.install(
            FlowEntry(match={"dst": "h1"}, action="group", group_id=9))
        entry, _ = pipeline.process(udp_packet("a", "h1", 10))
        assert entry.action == "group" and entry.group_id == 9

    def test_non_flow_field_entry_splits_one_flow(self):
        # Two packets of one flow that differ only in size: an entry on
        # ``size`` takes one of them and the route the other.
        pipeline = Pipeline()
        pipeline.forwarding_table.install(
            FlowEntry(match={"dst": "h1"}, action="forward", output_port=1))
        pipeline.forwarding_table.install(
            FlowEntry(match={"size": 842}, action="drop", priority=99))
        small = udp_packet("h0", "h1", 100)
        big = udp_packet("h0", "h1", 800)          # 842 B on the wire
        assert small.flow_key() == big.flow_key()
        assert pipeline.process(small)[0].action == "forward"
        assert pipeline.process(big)[0].action == "drop"

    def test_stage_registers(self):
        pipeline = Pipeline()
        stage = pipeline.stage(2)
        assert stage.write_register(3, 99)
        assert stage.read_register(3) == 99
        assert stage.read_register(8) is None
        assert not stage.write_register(-1, 5)
        assert pipeline.stage(99) is None


class TestFlowIndex:
    """The index finds what a scan finds and counts what a scan counts."""

    @given(st.lists(st.one_of(install_st, remove_st), max_size=20))
    # Routes only, looked up again and again (the same-flow case).
    @example([("install", {"dst": "h1"}, 0, "forward"),
              ("install", {"dst": "h2"}, 0, "forward")])
    # A higher-priority entry for a destination that already has a route.
    @example([("install", {"dst": "h1"}, 0, "forward"),
              ("install", {"dst": "h2"}, 0, "forward"),
              ("install", {"dst": "h1"}, 10, "forward")])
    # An entry on a field outside the flow identity.
    @example([("install", {"dst": "h1"}, 0, "forward"),
              ("install", {"dst": "h2"}, 0, "forward"),
              ("install", {"size": 842}, 99, "drop")])
    # Equal priorities across groups and a wildcard: install order decides.
    @example([("install", {"dst": "h1", "dport": 80}, 1, "drop"),
              ("install", {}, 1, "forward"),
              ("install", {"dst": "h1"}, 1, "group"),
              ("remove", 1), ("install", {}, 1, "drop")])
    def test_index_matches_the_scan(self, ops):
        table, oracle = FlowTable(), ScanTable()
        ids = itertools.count(1)
        for op in ops:
            if op[0] == "install":
                _, match, priority, action = op
                entry_id = next(ids)
                for side in (table, oracle):
                    side.install(FlowEntry(match=dict(match), action=action,
                                           priority=priority, entry_id=entry_id))
            else:
                assert table.remove(op[1]) == oracle.remove(op[1])
            for packet in PROBES:
                got, want = table.lookup(packet), oracle.lookup(packet)
                assert (got and got.entry_id) == (want and want.entry_id)
            assert observe(table) == observe(oracle)

    def test_a_fat_tree_table_probes_one_dict(self):
        sim = Simulator()
        network = build_fat_tree(sim, k=8)
        populated = [stage.table for switch in network.switches.values()
                     for stage in switch.pipeline.stages if stage.table.entries]
        assert len(populated) == len(network.switches) == 80
        for table in populated:
            assert len(table) == 128                      # one route per host
            assert [names for names, _, _ in table._groups] == [("dst",)]
        network.stop_switch_processes()

    def test_an_unhashable_match_value_is_rejected_at_install(self):
        table = FlowTable()
        with pytest.raises(ValueError, match="'dst'.*unhashable"):
            table.install(FlowEntry(match={"dport": 80, "dst": ["h1"]},
                                    action="forward", output_port=0))
        assert (table.version, table.entries) == (1, [])
        assert table.lookup(udp_packet("h0", "h1", 100)) is None

    def test_a_match_on_no_packet_field_is_rejected_at_install(self):
        with pytest.raises(ValueError, match="'colour', not a packet field"):
            FlowTable().install(FlowEntry(match={"colour": "red"}, action="drop"))

    def test_an_unhashable_packet_value_matches_no_key(self):
        # ``tpp`` holds an unhashable TPP on TPP packets; ``None`` elsewhere.
        table = FlowTable()
        bare_only = table.install(FlowEntry(match={"tpp": None}, action="drop"))
        packet = udp_packet("h0", "h1", 100)
        assert table.lookup(packet) is bare_only
        packet.tpp = object.__new__(type("Unhashable", (), {"__hash__": None}))
        assert table.lookup(packet) is None
