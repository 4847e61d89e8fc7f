"""Cross-module integration tests: full scenarios exercising the whole stack."""

from functools import partial

import pytest

from repro.apps.netsight import (PACKET_HISTORY_TPP_SOURCE, NetSightAggregator,
                                 NetWatch)
from repro.apps.netverify import RouteVerifier, observation_from_tpp, PATH_TPP_SOURCE
from repro.core.compiler import compile_tpp
from repro.endhost import PacketFilter, TPPControlPlane, install_stacks
from repro.net import (RateLimitedFlow, Simulator, build_dumbbell, build_leaf_spine, mbps,
                       udp_packet)
from repro.session import Scenario


class TestMultipleApplicationsCoexist:
    def test_two_apps_with_different_filters_share_the_shim(self):
        sim = Simulator()
        network = build_dumbbell(sim, link_rate_bps=mbps(10))
        stacks = install_stacks(network)
        cp = stacks["h0"].control_plane

        monitor = cp.register_application("monitor")
        debugger = cp.register_application("debugger")
        monitor_results, debugger_results = [], []
        stacks["h5"].shim.bind_application(
            monitor.app_id, on_tpp=lambda tpp, pkt: monitor_results.append(tpp))
        stacks["h5"].shim.bind_application(
            debugger.app_id, on_tpp=lambda tpp, pkt: debugger_results.append(tpp))

        stacks["h0"].agent.add_tpp(
            monitor.app_id, PacketFilter(dport=5000),
            compile_tpp("PUSH [Queue:QueueOccupancy]", app_id=monitor.app_id).tpp)
        stacks["h0"].agent.add_tpp(
            debugger.app_id, PacketFilter(dport=6000),
            compile_tpp("PUSH [Switch:SwitchID]", app_id=debugger.app_id).tpp)

        network.hosts["h0"].send(udp_packet("h0", "h5", 500, dport=5000))
        network.hosts["h0"].send(udp_packet("h0", "h5", 500, dport=6000))
        network.hosts["h0"].send(udp_packet("h0", "h5", 500, dport=7000))
        sim.run(until=0.1)

        assert len(monitor_results) == 1
        assert len(debugger_results) == 1
        assert monitor_results[0].app_id == monitor.app_id
        assert debugger_results[0].app_id == debugger.app_id


class TestFailureDetectionScenario:
    def test_link_failure_is_visible_through_path_probes(self):
        """The §2.6 story: a link fails, routing is updated, and path probes
        observe the change — something end-to-end reachability alone cannot."""
        sim = Simulator()
        network = build_leaf_spine(sim, num_leaves=2, num_spines=2, hosts_per_leaf=1,
                                   link_rate_bps=mbps(10))
        stacks = install_stacks(network)
        src, dst = "h0_0", "h1_0"
        verifier = RouteVerifier(network)

        observations = []
        template = compile_tpp(PATH_TPP_SOURCE, num_hops=8,
                               app_id=stacks[src].executor_app_id).tpp

        def probe():
            stacks[src].executor.execute(
                template.clone(), dst,
                lambda tpp: observations.append(observation_from_tpp(tpp, sim.now))
                if tpp is not None else None,
                retries=0, timeout_s=0.02)

        process = sim.schedule_periodic(5e-3, probe)

        # After 100 ms, fail whichever spine currently carries the traffic and
        # repoint the leaf's route at the other spine.
        def fail_and_reroute():
            network.link_between("leaf0", "spine0").set_down()
            # The control plane repoints both directions at the surviving spine.
            network.switches["leaf0"].install_route(
                dst, network.ports_towards("leaf0", "spine1")[0], priority=100)
            network.switches["leaf1"].install_route(
                src, network.ports_towards("leaf1", "spine1")[0], priority=100)

        sim.schedule(0.1, fail_and_reroute)
        sim.run(until=0.4)
        process.stop()
        network.stop_switch_processes()

        assert observations, "probes must have completed"
        paths_before = {tuple(o.switch_ids) for o in observations if o.time < 0.1}
        paths_after = {tuple(o.switch_ids) for o in observations if o.time > 0.15}
        assert paths_after, "probes must survive the failure via the new route"
        spine1_id = network.switches["spine1"].switch_id
        assert all(spine1_id in path for path in paths_after)

    def test_netwatch_catches_a_misrouted_packet(self):
        """Install a deliberately wrong route and let netwatch flag the packets."""
        watch = NetWatch()

        def add_policy(experiment):
            # Policy: traffic from h0 must go through switch s1 (id 2) to
            # reach the far side - a waypoint policy.
            watch.add_waypoint_policy(
                "must-cross-core", "h0",
                waypoint_switch=experiment.network.switches["s1"].switch_id)

        result = (Scenario("dumbbell", link_rate_bps=mbps(10))
                  .tpp("netsight", PACKET_HISTORY_TPP_SOURCE, num_hops=10,
                       aggregator=partial(NetSightAggregator, netwatch=watch))
                  .setup(add_policy)
                  .setup(_misroute_h5_at_s0)
                  .setup(_send_h0_to_h5)
                  .run(duration_s=0.1))
        assert result.aggregators("netsight")["h1"].tpps_received == 1
        assert len(watch.violations) == 1
        assert watch.violations[0].policy == "must-cross-core"


def _misroute_h5_at_s0(experiment):
    """Misconfigure s0: packets for h5 bounce back to h1 (never cross s1)."""
    network = experiment.network
    port_to_h1 = network.ports_towards("s0", "h1")[0]
    network.switches["s0"].install_route("h5", port_to_h1, priority=50)


def _send_h0_to_h5(experiment):
    experiment.host("h0").send(udp_packet("h0", "h5", 300, dport=80))


class TestRateControlledFlowsShareAFabric:
    def test_flows_and_probes_coexist_on_a_leaf_spine(self):
        sim = Simulator()
        network = build_leaf_spine(sim, num_leaves=2, num_spines=2, hosts_per_leaf=2,
                                   link_rate_bps=mbps(10))
        stacks = install_stacks(network)
        src, dst = "h0_0", "h1_1"
        flow = RateLimitedFlow(sim, network.hosts[src], dst, rate_bps=2e6, dport=4242)

        samples = []
        template = compile_tpp("PUSH [Link:TX-Utilization]\nPUSH [Queue:QueueOccupancy]",
                               num_hops=6, app_id=stacks[src].executor_app_id).tpp

        def probe():
            stacks[src].executor.execute(
                template.clone(), dst,
                lambda tpp: samples.append(tpp) if tpp is not None else None,
                retries=1, timeout_s=0.05)

        process = sim.schedule_periodic(0.02, probe)
        sim.run(until=1.0)
        process.stop()
        network.stop_switch_processes()

        assert flow.packets_sent > 100
        assert len(samples) > 30
        # The probes see non-zero utilisation on the links the flow shares.
        max_util = max(max(hop[0] for hop in tpp.words_by_hop(2)[:tpp.hop_number])
                       for tpp in samples)
        assert max_util > 500   # > 5 % in basis points
