"""Tests for the end-host stack: filters, control plane, shim, deployment."""

import pytest

from repro.core import addressing
from repro.core.compiler import compile_tpp
from repro.core.exceptions import AccessControlError
from repro.endhost import (Aggregator, PacketFilter, TPPControlPlane,
                           install_stacks, match_all)
from repro.endhost.filters import FilterEntry, FilterTable
from repro.net.link import mbps
from repro.net.packet import udp_packet
from repro.net.port import DROP_PIPELINE
from repro.net.sim import Simulator
from repro.net.topology import build_dumbbell
from repro.session import Scenario


@pytest.fixture()
def dumbbell():
    sim = Simulator()
    network = build_dumbbell(sim, link_rate_bps=mbps(10))
    return sim, network, install_stacks(network)


class TestPacketFilter:
    def test_empty_filter_matches_everything(self):
        assert match_all().matches(udp_packet("a", "b", 10))

    def test_field_matching(self):
        packet = udp_packet("a", "b", 10, dport=80, flow_id=3)
        assert PacketFilter(dst="b", dport=80).matches(packet)
        assert not PacketFilter(dst="c").matches(packet)
        assert not PacketFilter(protocol="tcp").matches(packet)
        assert PacketFilter(dport_range=(70, 90)).matches(packet)
        assert not PacketFilter(dport_range=(90, 100)).matches(packet)
        assert PacketFilter(flow_id=3).matches(packet)

    def test_sampling_frequency_one_stamps_everything(self):
        entry = FilterEntry(filter=match_all(), app_id=1,
                            tpp_template=compile_tpp("PUSH [Switch:SwitchID]"))
        packet = udp_packet("a", "b", 10)
        assert all(entry.should_stamp(packet) for _ in range(5))

    def test_deterministic_sampling_every_nth(self):
        entry = FilterEntry(filter=match_all(), app_id=1,
                            tpp_template=compile_tpp("PUSH [Switch:SwitchID]"),
                            sample_frequency=4)
        packet = udp_packet("a", "b", 10)
        stamps = [entry.should_stamp(packet) for _ in range(12)]
        assert sum(stamps) == 3

    def test_invalid_sampling_rejected(self):
        with pytest.raises(ValueError):
            FilterEntry(filter=match_all(), app_id=1, tpp_template=None, sample_frequency=0)

    def test_filter_table_priority_and_first_match(self):
        table = FilterTable()
        low = FilterEntry(filter=match_all(), app_id=1,
                          tpp_template=compile_tpp("PUSH [Switch:SwitchID]"), priority=0)
        high = FilterEntry(filter=PacketFilter(dport=80), app_id=2,
                           tpp_template=compile_tpp("PUSH [Switch:SwitchID]"), priority=5)
        table.install(low)
        table.install(high)
        assert table.match(udp_packet("a", "b", 10, dport=80)) is high
        assert table.match(udp_packet("a", "b", 10, dport=81)) is low
        assert table.remove_app(2) == 1
        assert table.match(udp_packet("a", "b", 10, dport=80)) is low


class TestControlPlane:
    def test_application_registration(self):
        cp = TPPControlPlane()
        app = cp.register_application("monitor")
        assert app.app_id in cp.applications
        assert app.grants == []

    def test_link_register_allocation_is_exclusive(self):
        cp = TPPControlPlane()
        first = cp.register_application("one")
        second = cp.register_application("two")
        r1 = cp.allocate_link_register(first)
        r2 = cp.allocate_link_register(second)
        assert r1 != r2

    def test_register_exhaustion(self):
        cp = TPPControlPlane()
        app = cp.register_application("greedy")
        for _ in range(cp.NUM_LINK_REGISTERS):
            cp.allocate_link_register(app)
        with pytest.raises(AccessControlError):
            cp.allocate_link_register(app)

    def test_release_returns_registers(self):
        cp = TPPControlPlane()
        app = cp.register_application("temp")
        register = cp.allocate_link_register(app)
        cp.release_application(app.app_id)
        other = cp.register_application("next")
        assert cp.allocate_link_register(other) == register

    def test_validate_read_only_tpp(self):
        cp = TPPControlPlane()
        app = cp.register_application("reader")
        tpp = compile_tpp("PUSH [Switch:SwitchID]").tpp
        cp.validate(app.app_id, tpp)
        assert tpp.app_id == app.app_id

    def test_validate_rejects_unauthorised_write(self):
        cp = TPPControlPlane()
        app = cp.register_application("writer")
        tpp = compile_tpp("STORE [Link:AppSpecific_1], [Packet:Hop[0]]").tpp
        with pytest.raises(AccessControlError):
            cp.validate(app.app_id, tpp)

    def test_validate_accepts_write_within_grant(self):
        cp = TPPControlPlane()
        app = cp.register_application("rcp")
        register = cp.allocate_link_register(app)
        tpp = compile_tpp(f"STORE [Link:AppSpecific_{register}], [Packet:Hop[0]]").tpp
        cp.validate(app.app_id, tpp)

    def test_global_write_disable(self):
        cp = TPPControlPlane(writes_allowed=False)
        app = cp.register_application("rcp")
        register = cp.allocate_link_register(app)
        tpp = compile_tpp(f"STORE [Link:AppSpecific_{register}], [Packet:Hop[0]]").tpp
        with pytest.raises(AccessControlError):
            cp.validate(app.app_id, tpp)

    def test_unknown_app_rejected(self):
        cp = TPPControlPlane()
        with pytest.raises(AccessControlError):
            cp.validate(999, compile_tpp("PUSH [Switch:SwitchID]").tpp)

    def test_explicit_grant(self):
        cp = TPPControlPlane()
        app = cp.register_application("custom")
        address = addressing.resolve("[Stage$1:Reg0]")
        cp.grant(app, "write", address, address)
        tpp = compile_tpp("STORE [Stage$1:Reg0], [Packet:Hop[0]]").tpp
        cp.validate(app.app_id, tpp)
        with pytest.raises(ValueError):
            cp.grant(app, "execute", 0, 1)


class TestDataplaneShim:
    def test_add_tpp_attaches_to_matching_packets(self, dumbbell):
        sim, net, stacks = dumbbell
        cp = stacks["h0"].control_plane
        app = cp.register_application("mon")
        compiled = compile_tpp("PUSH [Switch:SwitchID]", app_id=app.app_id)
        stacks["h0"].agent.add_tpp(app.app_id, PacketFilter(dst="h5"), compiled.tpp)
        net.hosts["h0"].send(udp_packet("h0", "h5", 100, dport=5000))
        net.hosts["h0"].send(udp_packet("h0", "h4", 100, dport=5000))
        sim.run(until=0.05)
        assert stacks["h0"].shim.tpps_attached == 1

    def test_add_tpp_rejected_without_grant_is_not_installed(self, dumbbell):
        _, _, stacks = dumbbell
        cp = stacks["h0"].control_plane
        app = cp.register_application("writer")
        compiled = compile_tpp("POP [Link:AppSpecific_0]", app_id=app.app_id)
        with pytest.raises(AccessControlError):
            stacks["h0"].agent.add_tpp(app.app_id, match_all(), compiled.tpp)
        assert len(stacks["h0"].shim.filters) == 0
        assert stacks["h0"].agent.api_failures == 1

    def test_receiver_strips_tpp_before_delivery(self, dumbbell):
        sim, net, stacks = dumbbell
        cp = stacks["h0"].control_plane
        app = cp.register_application("mon")
        compiled = compile_tpp("PUSH [Switch:SwitchID]", app_id=app.app_id)
        stacks["h0"].agent.add_tpp(app.app_id, match_all(), compiled.tpp)
        net.hosts["h5"].keep_received_log = True
        net.hosts["h0"].send(udp_packet("h0", "h5", 100, dport=7777))
        sim.run(until=0.05)
        delivered = net.hosts["h5"].received_log[0]
        assert delivered.tpp is None                      # application is oblivious
        assert stacks["h5"].shim.tpps_completed == 1

    def test_completed_tpp_dispatched_to_bound_aggregator(self, dumbbell):
        sim, net, stacks = dumbbell
        cp = stacks["h0"].control_plane
        app = cp.register_application("mon")
        compiled = compile_tpp("PUSH [Switch:SwitchID]", app_id=app.app_id)
        seen = []
        stacks["h5"].shim.bind_application(app.app_id,
                                           on_tpp=lambda tpp, pkt: seen.append(tpp))
        stacks["h0"].agent.add_tpp(app.app_id, match_all(), compiled.tpp)
        net.hosts["h0"].send(udp_packet("h0", "h5", 100, dport=7777))
        sim.run(until=0.05)
        assert len(seen) == 1
        assert seen[0].hop_number == 2

    def test_echo_to_source(self, dumbbell):
        sim, net, stacks = dumbbell
        cp = stacks["h0"].control_plane
        app = cp.register_application("rcp-like")
        compiled = compile_tpp("PUSH [Switch:SwitchID]", app_id=app.app_id)
        returned = []
        stacks["h0"].shim.bind_application(app.app_id,
                                           on_tpp=lambda tpp, pkt: returned.append(tpp))
        stacks["h5"].shim.bind_application(app.app_id, echo_to_source=True)
        stacks["h0"].agent.add_tpp(app.app_id, match_all(), compiled.tpp)
        net.hosts["h0"].send(udp_packet("h0", "h5", 100, dport=7777))
        sim.run(until=0.1)
        assert len(returned) == 1
        assert returned[0].pushed_words() == [net.switches["s0"].switch_id,
                                              net.switches["s1"].switch_id]

    def test_only_one_tpp_per_packet(self, dumbbell):
        sim, net, stacks = dumbbell
        cp = stacks["h0"].control_plane
        first = cp.register_application("one")
        second = cp.register_application("two")
        stacks["h0"].agent.add_tpp(first.app_id, match_all(),
                                   compile_tpp("PUSH [Switch:SwitchID]").tpp, priority=5)
        stacks["h0"].agent.add_tpp(second.app_id, match_all(),
                                   compile_tpp("PUSH [Switch:VersionNumber]").tpp, priority=1)
        net.hosts["h0"].send(udp_packet("h0", "h5", 100, dport=1))
        sim.run(until=0.05)
        assert stacks["h0"].shim.tpps_attached == 1


class TestExecutor:
    def test_reliable_execution_returns_executed_tpp(self, dumbbell):
        sim, net, stacks = dumbbell
        results = []
        tpp = compile_tpp("PUSH [Switch:SwitchID]",
                          app_id=stacks["h0"].executor_app_id).tpp
        stacks["h0"].executor.execute(tpp, "h5", results.append)
        sim.run(until=0.2)
        assert len(results) == 1
        assert results[0].pushed_words() == [1, 2]

    def test_timeout_and_retries_then_failure(self, dumbbell):
        sim, net, stacks = dumbbell
        net.link_between("s0", "s1").set_down()
        results = []
        tpp = compile_tpp("PUSH [Switch:SwitchID]",
                          app_id=stacks["h0"].executor_app_id).tpp
        stacks["h0"].executor.execute(tpp, "h5", results.append, retries=2, timeout_s=0.01)
        sim.run(until=1.0)
        assert results == [None]
        assert stacks["h0"].executor.stats.retries == 2
        assert stacks["h0"].executor.stats.failures == 1

    def test_retry_succeeds_after_transient_failure(self, dumbbell):
        sim, net, stacks = dumbbell
        link = net.link_between("s0", "s1")
        link.set_down()
        sim.schedule(0.05, link.set_up)
        results = []
        tpp = compile_tpp("PUSH [Switch:SwitchID]",
                          app_id=stacks["h0"].executor_app_id).tpp
        stacks["h0"].executor.execute(tpp, "h5", results.append, retries=5, timeout_s=0.03)
        sim.run(until=1.0)
        assert len(results) == 1 and results[0] is not None

    def test_targeted_execution_runs_on_one_switch_only(self, dumbbell):
        sim, net, stacks = dumbbell
        results = []
        target = net.switches["s1"].switch_id
        stacks["h0"].executor.execute_targeted(
            ["Switch:SwitchID", "Link:QueueSizePackets"], target, "h5", results.append)
        sim.run(until=0.2)
        hops = results[0].words_by_hop(4)
        assert hops[0][2] == 0            # first hop (s0): CEXEC failed, nothing loaded
        assert hops[1][2] == target       # second hop (s1): statistics collected

    def test_scatter_gather_collects_all_targets(self, dumbbell):
        sim, net, stacks = dumbbell
        collected = {}
        targets = {net.switches["s0"].switch_id: "h5",
                   net.switches["s1"].switch_id: "h5"}
        stacks["h0"].executor.scatter_gather(["Switch:SwitchID"], targets, collected.update)
        sim.run(until=0.3)
        assert set(collected) == set(targets)
        assert all(tpp is not None for tpp in collected.values())

    def test_split_statistics(self):
        from repro.endhost.executor import TPPExecutor
        chunks = TPPExecutor.split_statistics([f"stat{i}" for i in range(12)])
        assert [len(chunk) for chunk in chunks] == [5, 5, 2]

    def test_execute_split_combines_results(self, dumbbell):
        sim, net, stacks = dumbbell
        results = []
        stats = ["Switch:SwitchID", "Switch:VersionNumber", "Link:TX-Bytes",
                 "Link:RX-Bytes", "Queue:QueueOccupancy", "Switch:NumPorts"]
        stacks["h0"].executor.execute_split(stats, "h5", results.append)
        sim.run(until=0.3)
        assert len(results) == 1
        assert len(results[0]) == 2
        assert all(tpp is not None for tpp in results[0])

    def test_reflective_execution_turns_around_at_target_switch(self, dumbbell):
        sim, net, stacks = dumbbell
        results = []
        target = net.switches["s0"].switch_id
        stacks["h0"].executor.execute_targeted(["Switch:SwitchID"], target, "h5",
                                               results.append, reflect=True)
        sim.run(until=0.2)
        assert len(results) == 1 and results[0] is not None
        # Only the target switch executed before the probe was reflected home.
        assert results[0].hop_number >= 1
        assert net.hosts["h5"].packets_received == 0

    def test_reflection_without_a_usable_return_port_is_a_pipeline_drop(self):
        sim = Simulator()
        net = build_dumbbell(sim, hosts_per_side=1, link_rate_bps=mbps(10))
        s1 = net.switches["s1"]
        s1.install_route("h0", 99, priority=100)        # s1 has no port 99
        packet = udp_packet("h0", "h1", 100)
        packet.attach_tpp(compile_tpp("PUSH [Switch:SwitchID]").clone_tpp())
        packet.metadata["tpp_reflect_switch"] = s1.switch_id
        net.hosts["h0"].send(packet)
        sim.run(until=0.01)
        assert packet.dropped and packet.drop_reason == "no return route at s1"
        assert s1.drops_by_reason == {DROP_PIPELINE: 1}
        assert net.hosts["h0"].packets_received == net.hosts["h1"].packets_received == 0


def _send_one_udp_packet(experiment):
    experiment.host("h0").send(udp_packet("h0", "h5", 100, dport=9))


class TestDeploymentFramework:
    """The experiment is the one provisioning agent: ``.tpp(...)`` registers
    the app, binds an aggregator per receiver and installs the template on
    each sender."""

    def test_deploy_installs_rules_and_aggregators(self):
        result = (Scenario("dumbbell", link_rate_bps=mbps(10))
                  .tpp("test-app", "PUSH [Switch:SwitchID]", num_hops=10,
                       filter=PacketFilter(protocol="udp"),
                       collector="test-door")
                  .collector()
                  .setup(_send_one_udp_packet)
                  .run(duration_s=0.05))
        aggregators = result.aggregators("test-app")
        assert len(aggregators) == len(result.stacks)
        assert all(type(a) is Aggregator for a in aggregators.values())
        assert aggregators["h5"].tpps_received == 1
        # The finish push reaches the app's named front door, one
        # snapshot per receiving host.
        door = result.collector("test-app")
        assert door.name == "test-door" and door.submitted == len(result.stacks)
        plane = result.experiment.collect_plane
        assert sorted(host for shard in plane.shards
                      for (_, host, _) in shard.state) == sorted(result.stacks)

    def test_tpp_collector_is_a_front_door_name(self):
        with pytest.raises(ValueError, match="collector"):
            Scenario("dumbbell").tpp("t", "PUSH [Switch:SwitchID]",
                                     collector=object())

    def test_deploy_subset_of_hosts(self):
        experiment = (Scenario("dumbbell", link_rate_bps=mbps(10))
                      .tpp("subset", "PUSH [Switch:SwitchID]",
                           senders=["h0"], receivers=["h5"])
                      .build())
        app = experiment.apps["subset"]
        assert set(app.aggregators) == {"h5"}
        assert set(experiment.stacks["h5"].shim.bindings) \
            == {experiment.stacks["h5"].executor_app_id, app.application.app_id}
        assert len(experiment.stacks["h1"].shim.filters) == 0
        assert len(experiment.stacks["h0"].shim.filters) == 1
        assert experiment.control_plane.applications[app.application.app_id] \
            .tpps_installed == 1

    def test_installed_template_is_a_copy_per_sender(self):
        template = compile_tpp("PUSH [Switch:SwitchID]", num_hops=4).tpp
        experiment = (Scenario("dumbbell", link_rate_bps=mbps(10))
                      .tpp("raw", template).build())
        installed = [stack.shim.filters.entries[0].tpp_template
                     for stack in experiment.stacks.values()]
        app_id = experiment.apps["raw"].application.app_id
        assert all(tpp is not template and tpp.app_id == app_id
                   for tpp in installed)
        assert len({id(tpp) for tpp in installed}) == len(installed)
        assert template.app_id == 0


class TestAggregatorTruncationDetection:
    def test_out_of_room_tpps_are_counted_separately(self):
        from repro.core.isa import Instruction, Opcode
        from repro.core.packet_format import AddressingMode, make_tpp

        aggregator = Aggregator("h0")
        fine = make_tpp([Instruction(Opcode.LOAD, 0x0000, packet_offset=0)],
                        num_hops=4, mode=AddressingMode.HOP)
        fine.hop_number = 4                      # exactly filled, nothing lost
        truncated = make_tpp([Instruction(Opcode.LOAD, 0x0000, packet_offset=0)],
                             num_hops=4, mode=AddressingMode.HOP)
        truncated.hop_number = 6                 # visited more hops than it can hold
        aggregator.on_tpp(fine, udp_packet("a", "h0", 100))
        aggregator.on_tpp(truncated, udp_packet("a", "h0", 100))
        assert aggregator.tpps_received == 2
        assert aggregator.tpps_truncated == 1
        summary = aggregator.summarize()
        assert summary["tpps_truncated"] == 1

    def test_stack_tpp_out_of_room_only_past_capacity(self):
        tpp = compile_tpp("PUSH [Switch:SwitchID]", num_hops=2).tpp
        assert not tpp.out_of_room
        tpp.hop_number = 2                       # exactly filled: nothing lost
        tpp.stack_pointer = len(tpp.memory)
        assert not tpp.out_of_room
        tpp.hop_number = 3                       # one hop could not record
        assert tpp.out_of_room

    def test_stack_tpp_with_skipped_pushes_not_misreported(self):
        # Hops whose PUSH was skipped for *missing switch memory* leave free
        # room behind; visiting many hops must not count as truncation.
        tpp = compile_tpp("PUSH [Switch:SwitchID]", num_hops=4).tpp
        tpp.hop_number = 6                       # visited 6 switches...
        tpp.stack_pointer = 3 * tpp.word_bytes   # ...but only 3 had the stat
        assert not tpp.out_of_room
