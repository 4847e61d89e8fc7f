"""Tests for the unified Scenario/Experiment session layer (repro.session)."""

import pytest

from repro.apps.microburst import microburst_scenario
from repro.endhost import Aggregator, PacketFilter
from repro.net import mbps
from repro.session import (DuplicateRegistration, Registry, Scenario, ScenarioSpec,
                           TOPOLOGIES, UnknownRegistration, WORKLOADS,
                           register_topology, register_workload)


class TestRegistry:
    def test_builtin_topologies_registered(self):
        assert {"dumbbell", "rcp-chain", "conga", "leaf-spine", "fat-tree"} \
            <= set(TOPOLOGIES.names())

    def test_builtin_workloads_registered(self):
        assert {"messages", "paced-flows", "all-to-all-once", "cross-pod-bursts"} \
            <= set(WORKLOADS.names())

    def test_unknown_lookup_lists_the_menu(self):
        with pytest.raises(UnknownRegistration) as excinfo:
            TOPOLOGIES.get("moebius-strip")
        assert "moebius-strip" in str(excinfo.value)
        assert "dumbbell" in str(excinfo.value)

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("one")(lambda: None)
        with pytest.raises(DuplicateRegistration):
            registry.register("one")(lambda: None)
        # ... unless explicitly overwritten.
        replacement = lambda: 42                               # noqa: E731
        registry.register("one", overwrite=True)(replacement)
        assert registry.get("one") is replacement

    def test_bare_decorator_uses_function_name(self):
        registry = Registry("thing")

        @registry.register
        def build_ring():
            return "ring"

        assert registry.get("build_ring") is build_ring

    def test_scenario_rejects_unknown_names_eagerly(self):
        with pytest.raises(UnknownRegistration):
            Scenario("not-a-topology")
        with pytest.raises(UnknownRegistration):
            Scenario("dumbbell").workload("not-a-workload")

    def test_custom_registrations_compose_into_scenarios(self):
        from repro.net.topology import build_dumbbell

        @register_topology("tiny-dumbbell")
        def tiny(sim, **kwargs):
            kwargs.setdefault("hosts_per_side", 1)
            return build_dumbbell(sim, **kwargs)

        @register_workload("one-packet")
        def one_packet(experiment):
            from repro.net import udp_packet
            experiment.host("h0").send(udp_packet("h0", "h1", 100, dport=9))
            return 1

        try:
            result = (Scenario("tiny-dumbbell", link_rate_bps=mbps(10))
                      .workload("one-packet")
                      .run(duration_s=0.05))
            assert result.workloads["one-packet"] == 1
            assert result.network.hosts["h1"].packets_received == 1
        finally:
            TOPOLOGIES._entries.pop("tiny-dumbbell")
            WORKLOADS._entries.pop("one-packet")


class TestScenarioBuilder:
    def test_fluent_chain_returns_self(self):
        scenario = Scenario("dumbbell")
        assert scenario.tpp("t", "PUSH [Switch:SwitchID]") is scenario
        assert scenario.workload("messages") is scenario
        assert scenario.collect(on_tpp=lambda tpp, packet: None) is scenario
        assert scenario.setup(lambda experiment: None) is scenario

    def test_duplicate_tpp_and_workload_names_rejected(self):
        scenario = Scenario("dumbbell").tpp("t", "PUSH [Switch:SwitchID]")
        with pytest.raises(ValueError):
            scenario.tpp("t", "PUSH [Switch:SwitchID]")
        scenario.workload("messages")
        with pytest.raises(ValueError):
            scenario.workload("messages")
        # Same workload twice is fine with distinct names.
        scenario.workload("messages", name="messages-2")

    def test_collect_requires_a_declared_tpp(self):
        with pytest.raises(ValueError):
            Scenario("dumbbell").collect(on_tpp=lambda tpp, packet: None)
        with pytest.raises(KeyError):
            Scenario("dumbbell").tpp("t", "PUSH [Switch:SwitchID]") \
                .collect(on_tpp=lambda t, p: None, app="other")

    def test_tpp_program_type_validated_at_build(self):
        scenario = Scenario("dumbbell").tpp("bad", 12345)
        with pytest.raises(TypeError):
            scenario.build()

    def test_deploy_without_stacks_is_an_error(self):
        scenario = Scenario("dumbbell", stacks=False).tpp("t", "PUSH [Switch:SwitchID]")
        with pytest.raises(RuntimeError):
            scenario.build()

    def test_collect_callback_sees_completed_tpps(self):
        seen = []
        result = (Scenario("dumbbell", link_rate_bps=mbps(10))
                  .tpp("monitor", "PUSH [Switch:SwitchID]", num_hops=6,
                       filter=PacketFilter(protocol="udp"))
                  .collect(on_tpp=lambda tpp, packet: seen.append(packet.dst))
                  .workload("messages", offered_load=0.2, message_bytes=2000)
                  .run(duration_s=0.05))
        assert seen
        assert len(seen) == result.tpps_received
        assert result.tpps_attached >= result.tpps_received

    def test_build_gives_interactive_experiment(self):
        experiment = (Scenario("dumbbell", link_rate_bps=mbps(10))
                      .workload("messages", offered_load=0.2)).build()
        experiment.sim.run(until=0.02)
        mid_events = experiment.sim.events_executed
        assert mid_events > 0
        experiment.sim.run(until=0.04)
        result = experiment.finish()
        assert result.events_executed >= mid_events
        # finish() is idempotent.
        assert experiment.finish() is result

    # A NaN or infinite horizon used to spin forever (the switches' periodic
    # processes keep the heap non-empty) and a negative one returned an
    # empty result; each entry point must *return* by raising, so a
    # reintroduced hang fails here instead of stalling the suite.
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_durations_rejected_where_they_enter(self, bad):
        scenario = Scenario("dumbbell").workload("messages", offered_load=0.3)
        with pytest.raises(ValueError, match="duration_s"):
            scenario.run(bad)
        with pytest.raises(ValueError, match="duration_s"):
            scenario.build(bad)
        experiment = scenario.build()
        with pytest.raises(ValueError, match="duration_s"):
            experiment.run(bad)
        assert experiment.sim.events_executed == 0
        assert experiment.run(0.0).events_executed == 0      # zero is legal

    # Shrunk examples: a zero payload never drained a message (a hang), a
    # negative one grew it, a zero message divided by zero, a negative one
    # scheduled into the past, and negative bursts injected nothing while
    # counting every burst.  Each now fails the build, before the clock.
    @pytest.mark.parametrize("workload,knob,value", [
        ("messages", "packet_payload_bytes", 0),
        ("messages", "packet_payload_bytes", -1),
        ("messages", "message_bytes", 0),
        ("messages", "message_bytes", -5),
        ("messages", "message_bytes", 2.5),
        ("cross-pod-bursts", "burst_packets", -2),
        ("cross-pod-bursts", "burst_packets", True),
        ("cross-pod-bursts", "payload_bytes", 0)])
    def test_absurd_workload_sizes_fail_before_any_event(self, workload, knob,
                                                          value):
        scenario = Scenario("dumbbell").workload(workload, **{knob: value})
        with pytest.raises(ValueError, match=f"{knob} must be an int >= 1"):
            scenario.run(0.001)

    # Each was accepted (stacks="no" installed stacks, seed_ecmp="yes"
    # re-salted ECMP) or failed late (hosts="h0" with KeyError: 'h' at
    # build); a sweep axis was the only place they were checked.
    @pytest.mark.parametrize("knob,value", [
        ("stacks", "no"), ("seed_ecmp", "yes"), ("seed", True), ("name", 5),
        ("hosts", "h0")])
    def test_top_level_scalars_fail_at_declaration(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            Scenario("dumbbell", **{knob: value})
        with pytest.raises(ValueError, match=knob):
            ScenarioSpec("dumbbell", **{knob: value})

    def test_unknown_stack_host_is_named_at_build(self):
        # hosts=["nope"] used to fail with a bare KeyError.
        scenario = Scenario("dumbbell", hosts=["h0", "nope"])
        with pytest.raises(ValueError, match=r"hosts \['nope'\]"):
            scenario.build()

    # Each was accepted here and failed only at build, with TypeError:
    # TPPSwitch.__init__() got an unexpected keyword argument.
    @pytest.mark.parametrize("topology,key", [
        ("dumbbell", "bogus"), ("dumbbell", "compile_traces"), ("fat-tree", "sim"),
        ("leaf-spine", "k")])
    def test_unknown_topology_keyword_fails_at_declaration(self, topology, key):
        with pytest.raises(ValueError, match=f"topology_kwargs.*{key!r}"):
            Scenario(topology, **{key: 1})
        with pytest.raises(ValueError, match=f"topology_kwargs.*{key!r}"):
            ScenarioSpec(topology, topology_kwargs={key: 1})

    def test_builder_and_switch_keywords_are_accepted(self):
        # fat-tree's own k, and num_stages forwarded to every TPPSwitch.
        spec = Scenario("fat-tree", k=4, num_stages=2).spec
        assert spec.topology_kwargs == {"k": 4, "num_stages": 2}

    def test_compile_traces_field_only_takes_false(self):
        assert ScenarioSpec("dumbbell").compile_traces is False
        with pytest.raises(ValueError, match="compile_traces"):
            ScenarioSpec("dumbbell", compile_traces=True)

    def test_copy_is_independent(self):
        base = Scenario("dumbbell").workload("messages")
        variant = base.copy().tpp("t", "PUSH [Switch:SwitchID]")
        assert not base.spec.tpps and len(variant.spec.tpps) == 1


class TestResultAccessors:
    @pytest.fixture(scope="class")
    def result(self):
        return (Scenario("dumbbell", link_rate_bps=mbps(10))
                .tpp("a", "PUSH [Switch:SwitchID]", filter=PacketFilter(protocol="udp"))
                .tpp("b", "PUSH [Queue:QueueOccupancy]", filter=PacketFilter(dport=1))
                .workload("messages", offered_load=0.2, message_bytes=2000)
                .run(duration_s=0.05))

    def test_app_must_be_named_when_ambiguous(self, result):
        with pytest.raises(ValueError):
            result.aggregators()
        assert set(result.aggregators("a")) == set(result.network.hosts)

    def test_unknown_app_lists_candidates(self, result):
        with pytest.raises(KeyError) as excinfo:
            result.aggregators("zzz")
        assert "'a'" in str(excinfo.value)

    def test_instrumentation_counters_summed(self, result):
        per_host = sum(stack.shim.tpps_attached for stack in result.stacks.values())
        assert result.tpps_attached == per_host > 0


class TestSeedPlumbing:
    def test_identical_seeds_identical_runs(self):
        def fingerprint(seed):
            result = microburst_scenario(link_rate_bps=mbps(10), seed=seed) \
                .run(duration_s=0.3)
            return (len(result.samples), result.packets_instrumented,
                    tuple((s.time, s.queue_key, s.occupancy_packets)
                          for s in result.samples[:200]))

        assert fingerprint(7) == fingerprint(7)
        assert fingerprint(7) != fingerprint(8)

    def test_workload_seed_derived_from_master_rng(self):
        def run(seed):
            result = (Scenario("dumbbell", seed=seed, link_rate_bps=mbps(10))
                      .workload("messages", offered_load=0.3)
                      .run(duration_s=0.2))
            workload = result.workloads["messages"]
            return tuple((m.src, m.dst, m.created_at) for m in workload.messages_sent)

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_ecmp_salting_is_deterministic_and_seed_dependent(self):
        def salts(seed, seed_ecmp=True):
            experiment = Scenario("leaf-spine", seed=seed, seed_ecmp=seed_ecmp,
                                  num_leaves=2, num_spines=2, hosts_per_leaf=1,
                                  stacks=False).build()
            experiment.finish()
            return {(name, gid): group.salt
                    for name, switch in experiment.network.switches.items()
                    for gid, group in switch.group_table.groups.items()
                    if group.policy == "hash"}

        assert salts(1)                     # leaf-spine does install hash groups
        assert salts(1) == salts(1)
        assert salts(1) != salts(2)
        assert all(salt == 0 for salt in salts(1, seed_ecmp=False).values())

    def test_no_global_random_in_simulation_modules(self):
        # Determinism audit: nothing under repro/ may draw from the process-
        # global random module (module-level functions); only seeded
        # random.Random instances are allowed.
        import pathlib
        import re
        root = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        pattern = re.compile(
            r"random\.(random|randint|choice|choices|shuffle|sample|uniform|"
            r"expovariate|gauss|randrange|getrandbits)\(")
        for path in root.rglob("*.py"):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if pattern.search(line):
                    offenders.append(f"{path.name}:{lineno}: {line.strip()}")
        assert not offenders, f"global random usage found: {offenders}"


class TestRegisteredSmoke:
    """Every registered topology and workload builds and runs."""

    TOPOLOGY_KWARGS = {
        "dumbbell": dict(hosts_per_side=2),
        "rcp-chain": {},
        "conga": {},
        "leaf-spine": dict(num_leaves=2, num_spines=2, hosts_per_leaf=1),
        "fat-tree": dict(k=2),
    }

    def test_every_registered_topology_builds(self):
        for name in TOPOLOGIES.names():
            kwargs = self.TOPOLOGY_KWARGS.get(name, {})
            experiment = Scenario(name, stacks=False, **kwargs).build()
            hosts = list(experiment.network.hosts)
            assert hosts, name
            assert experiment.network.switches, name
            # Routes are installed: every host can reach every other host.
            path = experiment.network.compute_path(hosts[0], hosts[-1])
            assert path[0] == hosts[0] and path[-1] == hosts[-1]

    def test_every_registered_workload_runs(self):
        workload_kwargs = {
            "messages": dict(offered_load=0.2, message_bytes=2000),
            "paced-flows": dict(flows=[dict(src="h0", dst="h2", rate_bps=1e6,
                                            dport=7000)]),
            "all-to-all-once": dict(payload_bytes=200),
            "cross-pod-bursts": dict(burst_packets=2, burst_interval_s=1e-3),
        }
        for name in WORKLOADS.names():
            if name not in workload_kwargs:
                continue       # workloads registered by other tests
            result = (Scenario("dumbbell", hosts_per_side=2, link_rate_bps=mbps(10))
                      .workload(name, **workload_kwargs[name])
                      .run(duration_s=0.05))
            delivered = sum(host.packets_received
                            for host in result.network.hosts.values())
            assert delivered > 0, name

    def test_workload_names_are_covered_by_smoke(self):
        # If someone registers a new built-in workload, they must extend the
        # smoke kwargs above (or register it from a test with cleanup).
        builtin = {"messages", "paced-flows", "all-to-all-once", "cross-pod-bursts"}
        assert builtin <= set(WORKLOADS.names())


class TestAppScenariosSmoke:
    """All six apps expose a Scenario-based experiment that runs end to end."""

    def test_netsight(self):
        from repro.apps.netsight import NetWatch, netsight_scenario
        watch = NetWatch()
        watch.add_loop_freedom_policy()
        result = netsight_scenario(netwatch=watch).run(duration_s=0.2)
        assert result.histories_collected > 0
        assert result.histories_collected == len(result.store)
        assert result.violations == []
        assert result.tpp_overhead_bytes_per_packet == 84

    def test_sketches(self):
        from repro.apps.sketches import sketch_scenario
        result = sketch_scenario(num_leaves=2, num_spines=1,
                                 hosts_per_leaf=2).run(duration_s=0.5)
        assert result.estimates
        assert result.packets_instrumented > 0
        assert all(estimate >= 0 for estimate in result.estimates.values())

    def test_netverify(self):
        from repro.apps.netverify import verification_scenario
        result = verification_scenario().run(duration_s=0.35)
        assert result.pre_failure.matches
        assert result.convergence.convergence_seconds is not None
        assert result.convergence.convergence_seconds >= 0.03   # reroute delay
        assert result.probes_sent > 0

    def test_conga_scenario_rejects_bad_scheme(self):
        from repro.apps.conga import conga_scenario
        with pytest.raises(ValueError):
            conga_scenario("valiant")
