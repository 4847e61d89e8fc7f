"""Tests for the dataplane flight recorder (repro.obs.flightrec).

Covers the record/query core (journeys, flow traces, ring-buffer
overwrite accounting, flow sampling), drop forensics — one test per
``drops_by_reason`` category — the session-layer integration (the
``.flight_recorder(...)`` declaration, spec round-trip, sweep axes, and
the sweep-worker pickle round-trip of ``journey()``/``explain_drop``),
the Perfetto network-timeline export (validated against
``tools/check_trace_schema.py``, plus the checker's counter-event and
per-track metadata rules), and the load-bearing invariant end to end:

* **Recorder off is byte-identical** — every app scenario in the repo
  runs with the recorder off and on, and both land on the identical
  simulator event total and identical canonical
  :class:`~repro.session.ResultSummary` JSON.
"""

import hashlib
import importlib.util
import itertools
import json
import pickle
import re
from pathlib import Path

import pytest

import repro.net.flows
import repro.net.packet
from repro.core import addressing
from repro.core.isa import Instruction, Opcode
from repro.core.packet_format import AddressingMode, make_tpp
from repro.net import gbps, mbps
from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import udp_packet
from repro.net.port import (DROP_CORRUPTED, DROP_LINK_DOWN, DROP_PEER_DOWN,
                            DROP_PIPELINE, DROP_QUEUE_OVERFLOW)
from repro.net.sim import Simulator
from repro.net.topology import Network
from repro.obs import (FlightRecorder, RecorderSpec, Telemetry,
                       network_trace_events, trace_events,
                       write_network_trace)
from repro.obs.flightrec import (DELIVER, DROP, ENQUEUE, FAULT, HOST_SEND,
                                 REC_A, REC_B, REC_KIND, REC_PACKET, REC_SEQ,
                                 REC_SITE, SWITCH_RECV, TPP_EXEC, JourneyLog)
from repro.session import ResultSummary, Scenario
from repro.session.spec import SpecError
from repro.sweep import SweepRunner, SweepSpec


def _load_trace_checker():
    path = Path(__file__).resolve().parent.parent / "tools" / "check_trace_schema.py"
    spec = importlib.util.spec_from_file_location("check_trace_schema", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_trace_schema = _load_trace_checker()


def _pair(rate=mbps(100), delay=1e-6, queue_bytes=512 * 1024,
          queue_packets=None, spec=None):
    """A recorded two-host micro-topology: sim, hosts a/b, link, recorder."""
    sim = Simulator()
    a, b = Host(sim, "a"), Host(sim, "b")
    pa = a.add_port(queue_bytes, queue_packets)
    pb = b.add_port(queue_bytes, queue_packets)
    link = Link(pa, pb, rate_bps=rate, delay_s=delay)
    recorder = FlightRecorder(spec).attach_nodes(sim, [a, b])
    return sim, a, b, link, recorder


# ---------------------------------------------------------------------------
# RecorderSpec validation
# ---------------------------------------------------------------------------
class TestRecorderSpec:
    def test_defaults(self):
        spec = RecorderSpec()
        assert spec.capacity == 4096
        assert spec.sample_every == 1
        assert spec.apps is None and spec.links is None

    @pytest.mark.parametrize("kwargs", [
        {"capacity": 0}, {"capacity": -1}, {"sample_every": 0},
        {"apps": "netsight"}, {"links": "a<->b"},       # bare strings
        {"apps": ()}, {"links": []},                    # empty filters
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RecorderSpec(**kwargs)

    # NaN and 2.5 passed ``< 1`` and raised TypeError mid-run, when the
    # first ring was sized; True passed as a sampling stride of one.
    @pytest.mark.parametrize("kwargs", [
        {"capacity": float("nan")}, {"capacity": 2.5}, {"capacity": True},
        {"sample_every": True}, {"sample_every": 1.0}])
    def test_non_integer_counts_rejected_at_declaration(self, kwargs):
        (knob, value), = kwargs.items()
        with pytest.raises(ValueError, match=f"{knob} must be an int >= 1"):
            RecorderSpec(**kwargs)
        with pytest.raises(ValueError, match=f"{knob} must be an int >= 1"):
            _scenario().flight_recorder(**kwargs)

    def test_filters_normalised_to_tuples(self):
        spec = RecorderSpec(apps=["x"], links=("l1", "l2"))
        assert spec.apps == ("x",)
        assert spec.links == ("l1", "l2")

    def test_picklable(self):
        spec = RecorderSpec(capacity=128, sample_every=4, apps=("x",))
        assert pickle.loads(pickle.dumps(spec)) == spec


# ---------------------------------------------------------------------------
# Journeys and the query API
# ---------------------------------------------------------------------------
class TestJourneys:
    def test_full_lifecycle_recorded_in_order(self):
        sim, a, b, link, recorder = _pair()
        b.default_listener = lambda p: None
        packet = udp_packet("a", "b", 100)
        sim.schedule(0.0, a.send, packet)
        sim.run(until=1.0)
        journey = recorder.journey(packet.packet_id)
        assert journey is not None
        kinds = [record[REC_KIND] for record in journey.records]
        assert kinds == ["host-send", "enqueue", "dequeue", "deliver"]
        assert journey.hops == ["a", "b"]
        assert journey.delivered and not journey.dropped
        assert journey.drop_reason is None
        seqs = [record[REC_SEQ] for record in journey.records]
        assert seqs == sorted(seqs)

    def test_unknown_packet_returns_none(self):
        _, _, _, _, recorder = _pair()
        assert recorder.journey(999_999) is None

    def test_trace_flow_groups_by_flow(self):
        sim, a, b, link, recorder = _pair()
        flows = {7: 3, 8: 2}
        for flow_id, count in flows.items():
            for index in range(count):
                sim.schedule(0.001 * (flow_id + index),
                             a.send, udp_packet("a", "b", 50, flow_id=flow_id))
        sim.run(until=1.0)
        for flow_id, count in flows.items():
            journeys = recorder.trace_flow(flow_id)
            assert len(journeys) == count
            assert all(j.flow_id == flow_id for j in journeys)

    def test_log_pickles_and_queries_identically(self):
        sim, a, b, link, recorder = _pair()
        packet = udp_packet("a", "b", 100)
        sim.schedule(0.0, a.send, packet)
        sim.run(until=1.0)
        log = recorder.log()
        clone = pickle.loads(pickle.dumps(log))
        assert clone.records == log.records
        assert clone.stats == log.stats
        assert clone.journey(packet.packet_id).records == \
            log.journey(packet.packet_id).records


# ---------------------------------------------------------------------------
# Sampling and capacity policies
# ---------------------------------------------------------------------------
class TestSampling:
    def _run_flows(self, spec, flows=64, per_flow=2):
        sim, a, b, link, recorder = _pair(spec=spec)
        packets = []
        for flow_id in range(flows):
            for index in range(per_flow):
                packet = udp_packet("a", "b", 50, flow_id=flow_id)
                packets.append(packet)
                sim.schedule(0.0001 * len(packets), a.send, packet)
        sim.run(until=5.0)
        return recorder, packets

    def test_sampling_is_per_flow_and_complete(self):
        recorder, packets = self._run_flows(RecorderSpec(sample_every=4))
        log = recorder.log()
        sampled_flows = {log.journey(p.packet_id).flow_id
                         for p in packets if log.journey(p.packet_id)}
        assert 0 < len(sampled_flows) < 64
        # All-or-none per flow: a sampled flow has every packet's complete
        # journey; an unsampled flow has no records at all.
        for packet in packets:
            journey = log.journey(packet.packet_id)
            if packet.flow_id in sampled_flows:
                assert journey is not None and len(journey.records) == 4
            else:
                assert journey is None
        stats = recorder.stats()
        assert stats["flows_seen"] == 64
        assert stats["flows_sampled"] == len(sampled_flows)

    def test_sampling_is_deterministic_across_recorders(self):
        first, _ = self._run_flows(RecorderSpec(sample_every=4))
        second, _ = self._run_flows(RecorderSpec(sample_every=4))
        # Drop seq and packet_id (both are process-global counters); the
        # sampled *content* — times, nodes, kinds, flows, sites — must match.
        key = lambda rec: rec[1:4] + rec[5:]
        assert sorted(map(key, first.log().records)) == \
            sorted(map(key, second.log().records))

    def test_capacity_overwrites_are_accounted(self):
        spec = RecorderSpec(capacity=8)
        sim, a, b, link, recorder = _pair(spec=spec)
        for index in range(20):
            sim.schedule(0.0001 * index, a.send, udp_packet("a", "b", 50))
        sim.run(until=1.0)
        stats = recorder.stats()
        assert stats["records_written"] > stats["records_retained"]
        assert stats["records_overwritten"] == \
            stats["records_written"] - stats["records_retained"]
        assert all(len(ring) <= 8 for ring in recorder._rings.values())

    def test_off_means_no_taps(self):
        sim = Simulator()
        a, b = Host(sim, "a"), Host(sim, "b")
        pa, pb = a.add_port(), b.add_port()
        Link(pa, pb, rate_bps=mbps(100))
        assert a.recorder is None and pa.recorder is None


# ---------------------------------------------------------------------------
# Drop forensics: one test per drops_by_reason category
# ---------------------------------------------------------------------------
class TestDropForensics:
    def test_queue_overflow_names_the_port(self):
        sim, a, b, link, recorder = _pair(queue_packets=1)
        b.default_listener = lambda p: None
        packets = [udp_packet("a", "b", 1000) for _ in range(4)]
        for packet in packets:                  # one burst: head transmits,
            a.send(packet)                      # one queues, the rest drop
        sim.run(until=1.0)
        drops = recorder.explain_drop(category=DROP_QUEUE_OVERFLOW)
        assert len(drops) == 2
        for explanation in drops:
            assert explanation.site == "a.p0"
            assert explanation.category == DROP_QUEUE_OVERFLOW
            assert explanation.reason == "queue overflow at a.p0"
            assert explanation.records[-1][REC_KIND] == DROP
        # The per-packet path: journey ends in the drop, never delivers.
        journey = recorder.journey(drops[0].packet_id)
        assert journey.dropped and not journey.delivered

    def test_link_down_names_the_sending_port(self):
        sim, a, b, link, recorder = _pair()
        link.set_down()
        packet = udp_packet("a", "b", 100)
        a.send(packet)
        explanation = recorder.explain_drop(packet.packet_id)
        assert explanation is not None
        assert explanation.site == "a.p0"
        assert explanation.category == DROP_LINK_DOWN
        assert explanation.reason == "link down at a.p0"
        # The set_down fault on this link is surfaced as context.
        assert explanation.fault_context is not None
        assert explanation.fault_context[REC_KIND] == FAULT
        assert explanation.fault_context[REC_A] == "set-down"

    def test_peer_down_names_the_sending_port(self):
        sim, a, b, link, recorder = _pair()
        packet = udp_packet("a", "b", 100)
        sim.schedule(0.0, a.send, packet)
        b.ports[0].up = False                   # fails during propagation
        sim.run(until=1.0)
        explanation = recorder.explain_drop(packet.packet_id)
        assert explanation is not None
        # Peer-down is counted at the *sender*: the downed receive side
        # never saw the packet (mirrors Port._deliver_to_peer accounting).
        assert explanation.site == "a.p0"
        assert explanation.category == DROP_PEER_DOWN
        assert explanation.reason == "peer port down"

    def test_corruption_names_the_receiving_port(self):
        sim, a, b, link, recorder = _pair()
        link.set_loss(1.0)
        packet = udp_packet("a", "b", 100)
        sim.schedule(0.0, a.send, packet)
        sim.run(until=1.0)
        explanation = recorder.explain_drop(packet.packet_id)
        assert explanation is not None
        # Corruption is a failed CRC at the *receiver* — the tx/rx deficit
        # the loss-localization TPP measures.
        assert explanation.site == "b.p0"
        assert explanation.category == DROP_CORRUPTED
        assert "corrupted on" in explanation.reason
        assert explanation.fault_context is not None
        assert explanation.fault_context[REC_A] == "set-loss"

    def test_pipeline_drop_names_the_switch(self):
        sim = Simulator()
        net = Network(sim)
        net.add_host("h0")
        switch = net.add_switch("s1")
        net.connect("h0", "s1")
        net.install_shortest_path_routes()
        recorder = FlightRecorder().attach(net)
        packet = udp_packet("h0", "nowhere", 100)
        net.hosts["h0"].send(packet)
        sim.run(until=0.01)
        explanation = recorder.explain_drop(packet.packet_id)
        assert explanation is not None
        # A pipeline drop lands at the switch itself, not at a port.
        assert explanation.site == "s1"
        assert explanation.category == DROP_PIPELINE
        assert explanation.reason == "no_match at s1"
        assert packet.dropped and packet.drop_reason == explanation.reason
        assert switch.drops_by_reason == {DROP_PIPELINE: 1}
        assert switch.drop_bytes_by_reason == {DROP_PIPELINE: packet.size}
        assert switch.packets_dropped == 1

    @staticmethod
    def _line(s0_s1_delay=10e-6):
        """h0 - s0 - s1 - h1 built with Network.connect: the fabric link is
        named ``s0<->s1``, not after its ports."""
        sim = Simulator()
        net = Network(sim)
        for name in ("h0", "h1"):
            net.add_host(name)
        for name in ("s0", "s1"):
            net.add_switch(name)
        net.connect("h0", "s0")
        fabric = net.connect("s0", "s1", delay_s=s0_s1_delay)
        net.connect("s1", "h1")
        net.install_shortest_path_routes()
        net.hosts["h1"].default_listener = lambda p: None
        return sim, net, fabric, FlightRecorder().attach(net)

    def test_link_down_context_on_a_connect_built_link(self):
        sim, net, fabric, recorder = self._line()
        sim.schedule(0.0, fabric.set_down)
        packet = udp_packet("h0", "h1", 100)
        sim.schedule(1e-3, net.hosts["h0"].send, packet)
        sim.run(until=0.01)
        explanation = recorder.explain_drop(packet.packet_id)
        assert explanation.category == DROP_LINK_DOWN
        assert explanation.site == fabric.port_a.name
        assert explanation.fault_context is not None
        assert explanation.fault_context[REC_SITE] == "s0<->s1"
        assert explanation.fault_context[REC_A] == "set-down"

    def test_peer_down_context_on_a_connect_built_link(self):
        # A 1 ms fabric delay: the far port fails while the packet is on
        # the wire.
        sim, net, fabric, recorder = self._line(s0_s1_delay=1e-3)

        def fail_far_end():
            fabric.set_down()
            fabric.port_b.up = False

        packet = udp_packet("h0", "h1", 100)
        sim.schedule(0.0, net.hosts["h0"].send, packet)
        sim.schedule(5e-4, fail_far_end)
        sim.run(until=0.01)
        explanation = recorder.explain_drop(packet.packet_id)
        assert explanation.category == DROP_PEER_DOWN
        assert explanation.site == fabric.port_a.name
        assert explanation.fault_context is not None
        assert explanation.fault_context[REC_SITE] == "s0<->s1"
        assert explanation.fault_context[REC_A] == "set-down"

    def test_drops_bypass_flow_sampling(self):
        spec = RecorderSpec(sample_every=1_000_000)   # samples ~no flows
        sim, a, b, link, recorder = _pair(queue_packets=1, spec=spec)
        packets = [udp_packet("a", "b", 1000, flow_id=i) for i in range(6)]
        for packet in packets:
            a.send(packet)
        sim.run(until=1.0)
        drops = recorder.explain_drop(category=DROP_QUEUE_OVERFLOW)
        assert len(drops) == 4                   # forensics stay complete
        # ... while the happy path recorded (at most) nothing.
        assert recorder.log().drops() == \
            [j.records[-1] for j in map(recorder.journey,
                                        [d.packet_id for d in drops])]

    def test_explain_drop_filters(self):
        sim, a, b, link, recorder = _pair(queue_packets=1)
        for index in range(4):
            a.send(udp_packet("a", "b", 1000))
        sim.run(until=1.0)
        assert recorder.explain_drop(category="no-such-category") == []
        assert recorder.explain_drop(site="z9") == []
        by_site = recorder.explain_drop(site="a.p0")
        assert len(by_site) == 2
        # A delivered packet has no drop explanation.
        delivered = [p for p in recorder.log().packets()
                     if recorder.journey(p).delivered]
        assert recorder.explain_drop(delivered[0]) is None


# ---------------------------------------------------------------------------
# Session integration
# ---------------------------------------------------------------------------
def _scenario():
    return (Scenario(topology="dumbbell", seed=1, hosts_per_side=2)
            .tpp("qmon",
                 "PUSH [Switch:SwitchID]\nPUSH [Queue:QueueOccupancy]",
                 sample_frequency=1)
            .workload("messages", offered_load=0.3, message_bytes=5_000))


class TestSessionIntegration:
    def test_result_side_channels(self):
        result = _scenario().flight_recorder(capacity=1024).run(duration_s=0.1)
        assert result.flightrec is not None
        assert result.flightrec["records_written"] > 0
        assert isinstance(result.journeys, JourneyLog)
        kinds = {record[REC_KIND] for record in result.journeys.records}
        assert {HOST_SEND, ENQUEUE, DELIVER, SWITCH_RECV, TPP_EXEC} <= kinds
        # TPP execution outcomes carry the status label and executed count.
        execs = [r for r in result.journeys.records if r[REC_KIND] == TPP_EXEC]
        assert all(r[REC_A] == "ok" and r[REC_B] == 2 for r in execs)

    def test_no_recorder_means_no_side_channels(self):
        result = _scenario().run(duration_s=0.05)
        assert result.flightrec is None and result.journeys is None
        with pytest.raises(TypeError, match="flight_recorder"):
            result.journey(1)

    def test_summary_side_channel_excluded_from_canonical_json(self):
        result = _scenario().flight_recorder().run(duration_s=0.05)
        summary = ResultSummary.from_result(result)
        assert summary.flightrec == result.flightrec
        assert summary.journeys is result.journeys
        rendered = summary.as_jsonable()
        assert "flightrec" not in rendered and "journeys" not in rendered

    def test_spec_round_trip(self):
        scenario = _scenario().flight_recorder(capacity=256, sample_every=8)
        spec = scenario.to_spec()
        assert spec.recorder == scenario.spec.recorder
        rebuilt = pickle.loads(pickle.dumps(spec)).to_scenario()
        assert rebuilt.spec.recorder == scenario.spec.recorder
        # The recorder changes the spec's identity but not the run's bytes.
        assert spec.fingerprint() != _scenario().to_spec().fingerprint()

    def test_spec_kwargs_conflict_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            _scenario().flight_recorder(RecorderSpec(), capacity=10)
        with pytest.raises(TypeError):
            _scenario().flight_recorder("everything")

    def test_unknown_app_filter_fails_at_build(self):
        scenario = _scenario().flight_recorder(apps=["nope"])
        with pytest.raises(ValueError, match="nope"):
            scenario.run(duration_s=0.05)

    def test_app_filter_records_only_tpp_carriers(self):
        # Sparse TPP sampling (1-in-4 packets instrumented) so the app
        # filter has non-carriers to exclude.
        def sparse():
            return (Scenario(topology="dumbbell", seed=1, hosts_per_side=2)
                    .tpp("qmon",
                         "PUSH [Switch:SwitchID]\n"
                         "PUSH [Queue:QueueOccupancy]",
                         sample_frequency=4)
                    .workload("messages", offered_load=0.3,
                              message_bytes=5_000))

        result = sparse().flight_recorder(apps=["qmon"]).run(duration_s=0.1)
        assert result.flightrec["records_written"] > 0
        # Host-send records exist only for packets that carried the TPP.
        sends = [r for r in result.journeys.records
                 if r[REC_KIND] == HOST_SEND]
        assert sends
        unfiltered = sparse().flight_recorder().run(duration_s=0.1)
        assert result.flightrec["records_written"] < \
            unfiltered.flightrec["records_written"]

    def test_unknown_link_filter_fails_at_build(self):
        scenario = (Scenario("dumbbell", hosts_per_side=1)
                    .flight_recorder(RecorderSpec(links=("bogus-link",))))
        with pytest.raises(ValueError,
                           match=r"\['bogus-link'\].*s0<->s1"):
            scenario.run(duration_s=0.001)

    def test_link_filter_taps_matching_ports_only(self):
        unfiltered = _scenario().flight_recorder().run(duration_s=0.05)
        some_link = sorted(link.name
                           for link in unfiltered.network.links)[0]
        result = _scenario().flight_recorder(links=[some_link]) \
            .run(duration_s=0.05)
        assert result.flightrec["ports_tapped"] == 2
        port_sites = {r[REC_SITE] for r in result.journeys.records
                      if r[REC_KIND] in (ENQUEUE, DELIVER)}
        # Port sites ("h0.p0") belong to the link's two endpoint nodes.
        endpoints = set(some_link.split("<->"))
        assert port_sites
        assert {site.split(".")[0] for site in port_sites} <= endpoints

    def test_recorder_axis_sweeps(self):
        plan = SweepSpec(_scenario().flight_recorder()) \
            .axis("recorder.sample_every", [1, 8])
        labels = [task.label for task in plan.expand()]
        assert labels == ["recorder.sample_every=1", "recorder.sample_every=8"]
        with pytest.raises(SpecError, match="RecorderSpec has no field"):
            SweepSpec(_scenario()).axis("recorder.nope", [1])

    def test_journeys_round_trip_through_sweep_workers(self):
        # workers=2 forces the pickle boundary: specs ship out, summaries
        # (JourneyLog included) ship home, and the query API must work in
        # the parent process.
        runner = SweepRunner(workers=2, duration_s=0.1)
        plan = SweepSpec(_scenario().flight_recorder(capacity=2048)) \
            .replicate([1, 2])
        result = runner.run(plan)
        assert len(result.completed) == 2
        for outcome in result.completed:
            summary = outcome.summary
            assert summary.flightrec["records_written"] > 0
            packet_id = summary.journeys.packets()[0]
            journey = summary.journey(packet_id)
            assert journey is not None and journey.records
            assert summary.trace_flow(journey.flow_id)
            assert isinstance(summary.explain_drop(), list)


# ---------------------------------------------------------------------------
# Journey-log pin: no canonical artifact covers the recorder's output
# ---------------------------------------------------------------------------
class TestJourneyLogPin:
    """The suite digest and every canonical artifact exclude recorder
    output, so these digests are what holds its records byte-identical."""

    READ = "PUSH [Switch:SwitchID]\nPUSH [Queue:QueueOccupancy]"

    @pytest.fixture(autouse=True)
    def _fresh_ids(self, monkeypatch):
        # Packet and flow ids are process-wide counters; the sampler hashes
        # flow ids, so both restart for a run whose log is pinned.
        monkeypatch.setattr(repro.net.packet, "_packet_ids",
                            itertools.count(1))
        monkeypatch.setattr(repro.net.flows, "_flow_ids", itertools.count(1))

    @staticmethod
    def _digest(log: JourneyLog) -> str:
        digest = hashlib.blake2b(repr(log.records).encode(), digest_size=16)
        digest.update(repr(log.stats).encode())
        return digest.hexdigest()

    def test_fat_tree_probe_read_with_overwrites(self):
        result = (Scenario("fat-tree", seed=1, k=4, link_rate_bps=gbps(1),
                           link_delay_s=5e-6)
                  .workload("cross-pod-bursts", burst_packets=8,
                            burst_interval_s=100e-6, payload_bytes=700)
                  .tpp("probe", self.READ, num_hops=8)
                  .flight_recorder(capacity=256)
                  .run(duration_s=3e-4))
        log = result.journeys
        assert log.stats["records_overwritten"] == 920
        assert self._digest(log) == "965da7b6d32b8ca02edb821fd8ee152b"

    def test_dumbbell_drops_fault_and_sampling(self):
        result = (Scenario("dumbbell", seed=3, hosts_per_side=3,
                           queue_capacity_packets=4)
                  .workload("messages", offered_load=0.9, message_bytes=6_000)
                  .tpp("qmon", self.READ, num_hops=1)
                  .faults(corrupt_links=0, fail_links=1, fail_at_s=0.004,
                          repair_after_s=0.003)
                  .flight_recorder(sample_every=8)
                  .run(duration_s=0.012))
        log = result.journeys
        assert log.stats["drop_counts"] == {DROP_LINK_DOWN: 58,
                                            DROP_QUEUE_OVERFLOW: 404}
        assert log.stats["flows_sampled"] == 19
        assert [r[REC_A] for r in log.records if r[REC_KIND] == FAULT] == \
            ["set-down", "set-up", "clear-loss"]
        assert {(r[REC_A], r[REC_B]) for r in log.records
                if r[REC_KIND] == TPP_EXEC} == {("ok", 2), ("out-of-room", 0)}
        assert self._digest(log) == "b7730cb70aeddccd663d7bee87755312"


class TestTppExecLabels:
    """The ``tpp-exec`` record's label and count for the outcomes no
    scenario pin reaches: a CEXEC that fails (§3.3.3) and a STORE under the
    §4.3 write-disable knob."""

    def test_halted_and_write_disabled(self):
        sim = Simulator()
        net = Network(sim)
        for name in ("h0", "h1"):
            net.add_host(name)
        switch = net.add_switch("s1")
        net.connect("h0", "s1")
        net.connect("s1", "h1")
        net.install_shortest_path_routes()
        net.hosts["h1"].default_listener = lambda p: None
        recorder = FlightRecorder().attach(net)
        switch_id = addressing.resolve("[Switch:SwitchID]")
        register = addressing.resolve("[Link:AppSpecific_0]")

        def send(instructions, initial_values):
            packet = udp_packet("h0", "h1", 100)
            packet.attach_tpp(make_tpp(instructions, num_hops=1,
                                       mode=AddressingMode.HOP, values_per_hop=3,
                                       initial_values=initial_values))
            net.hosts["h0"].send(packet)
            sim.run_until_idle()
            return [(r[REC_A], r[REC_B]) for r in recorder.log().records
                    if r[REC_KIND] == TPP_EXEC and r[REC_PACKET] == packet.packet_id]

        net.stop_switch_processes()
        # LOAD runs, CEXEC's predicate (SwitchID == its id + 1) fails, the
        # last LOAD is halted: the count includes the failed condition.
        assert send([Instruction(Opcode.LOAD, switch_id, packet_offset=2),
                     Instruction(Opcode.CEXEC, switch_id, packet_offset=0),
                     Instruction(Opcode.LOAD, switch_id, packet_offset=2)],
                    [0xFFFF, switch.switch_id + 1, 0]) == [("halted", 2)]
        switch.tcpu.write_enabled = False
        assert send([Instruction(Opcode.LOAD, switch_id, packet_offset=1),
                     Instruction(Opcode.STORE, register, packet_offset=0)],
                    [5, 0, 0]) == [("write-disabled", 1)]


# ---------------------------------------------------------------------------
# Perfetto network export + schema checker extensions
# ---------------------------------------------------------------------------
class TestNetworkTraceExport:
    def _log(self):
        sim, a, b, link, recorder = _pair()
        for index in range(8):
            sim.schedule(0.0001 * index,
                         a.send, udp_packet("a", "b", 500, flow_id=index % 2))
        sim.run(until=1.0)
        return recorder.log()

    def test_counters_and_lifelines_emitted(self, tmp_path):
        log = self._log()
        path = tmp_path / "net.json"
        trace = write_network_trace(log, path)
        events = trace["traceEvents"]
        phases = {event["ph"] for event in events}
        assert phases == {"M", "X", "C"}
        counters = [e for e in events if e["ph"] == "C"]
        assert any(e["name"].startswith("queue ") for e in counters)
        assert any(e["name"].startswith("util ") for e in counters)
        queue_args = next(e["args"] for e in counters
                          if e["name"].startswith("queue "))
        assert set(queue_args) == {"packets", "bytes"}
        # Every slice track is named; the file validates.
        assert check_trace_schema.validate_trace(trace) == []
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert check_trace_schema.validate_trace(loaded) == []

    def test_empty_log_is_metadata_only_and_valid(self):
        events = network_trace_events(JourneyLog([], {}))
        assert len(events) == 1 and events[0]["ph"] == "M"
        assert check_trace_schema.validate_trace(
            {"traceEvents": events}) == []

    def test_empty_telemetry_trace_validates(self):
        telemetry = Telemetry()
        events = trace_events(telemetry)
        assert [event["ph"] for event in events] == ["M"]
        assert check_trace_schema.validate_trace(
            {"traceEvents": events}) == []

    def test_zero_duration_span_trace_validates(self):
        telemetry = Telemetry(clock=lambda: 1.0)   # frozen clock: dur == 0
        with telemetry.span("instant"):
            pass
        events = trace_events(telemetry)
        span_events = [event for event in events if event["ph"] == "X"]
        assert span_events and span_events[0]["dur"] == 0
        assert check_trace_schema.validate_trace(
            {"traceEvents": events}) == []

    def test_checker_rejects_bad_counters_and_unnamed_tracks(self):
        base = {"name": "q", "ph": "C", "ts": 0.0, "pid": 1, "tid": 0}
        assert check_trace_schema.validate_trace(
            {"traceEvents": [dict(base, args={})]})
        assert check_trace_schema.validate_trace(
            {"traceEvents": [dict(base, args={"v": "high"})]})
        assert check_trace_schema.validate_trace(
            {"traceEvents": [dict(base, args={"v": float("inf")})]})
        assert check_trace_schema.validate_trace({"traceEvents": [
            {"name": "s", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 3},
        ]})
        # ... and accepts a well-formed counter on a named track.
        assert check_trace_schema.validate_trace({"traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 3,
             "args": {"name": "s1"}},
            {"name": "s", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 3},
            dict(base, args={"v": 1.5}),
        ]}) == []


# ---------------------------------------------------------------------------
# The recorder differential: every app, off vs on — byte-identical
# ---------------------------------------------------------------------------
def _app_rows():
    """(name, scenario factory, duration) for every app in the repo."""
    from repro.apps.conga import conga_scenario
    from repro.apps.microburst import microburst_scenario
    from repro.apps.netsight import netsight_scenario
    from repro.apps.netverify import verification_scenario
    from repro.apps.rcp import ALPHA_MAXMIN, rcp_scenario
    from repro.apps.sketches import sketch_scenario

    return [
        ("microburst",
         lambda: microburst_scenario(link_rate_bps=mbps(10),
                                     offered_load=0.4, seed=3), 0.125),
        ("netsight",
         lambda: netsight_scenario(link_rate_bps=mbps(10), seed=2), 0.1),
        ("sketches",
         lambda: sketch_scenario(num_leaves=2, num_spines=1,
                                 hosts_per_leaf=2, seed=2), 0.2),
        ("rcp",
         lambda: rcp_scenario(alpha=ALPHA_MAXMIN, link_rate_bps=mbps(10)),
         0.5),
        ("conga",
         lambda: conga_scenario("conga", link_rate_bps=mbps(10)), 0.5),
        ("netverify", verification_scenario, 0.175),
    ]


def _canonical_view(summary: ResultSummary) -> str:
    """Sorted canonical JSON with object addresses masked (as in
    tests/test_obs.py: some sketch parts repr-render)."""
    view = json.dumps(summary.as_jsonable(), sort_keys=True)
    return re.sub(r"0x[0-9a-f]+", "0x-", view)


class TestRecorderDifferential:
    @pytest.mark.parametrize("name,factory,duration",
                             _app_rows(),
                             ids=[row[0] for row in _app_rows()])
    def test_recorder_off_vs_on_identical(self, tmp_path, name, factory,
                                          duration):
        def run(sample_every=None):
            scenario = factory()
            if sample_every is not None:
                scenario.flight_recorder(capacity=4096,
                                         sample_every=sample_every)
            result = scenario.build(duration).run(duration)
            return result, ResultSummary.from_result(result)

        off_result, off_summary = run()
        sampled_result, sampled_summary = run(sample_every=8)
        on_result, on_summary = run(sample_every=1)

        assert off_result.events_executed == sampled_result.events_executed \
            == on_result.events_executed
        assert _canonical_view(off_summary) == _canonical_view(sampled_summary) \
            == _canonical_view(on_summary)
        assert off_result.journeys is None
        assert sampled_result.journeys is not None
        assert on_result.journeys is not None and on_result.journeys.records
        # Sampling records a subset of what full recording does.
        assert len(sampled_result.journeys.records) \
            <= len(on_result.journeys.records)
        # The on-run's journeys export to a schema-valid network timeline.
        trace_path = tmp_path / f"{name}.json"
        trace = write_network_trace(on_result.journeys, trace_path)
        assert check_trace_schema.validate_trace(trace) == []
