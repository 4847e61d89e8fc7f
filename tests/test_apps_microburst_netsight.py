"""Tests for the micro-burst monitor (§2.1) and NetSight troubleshooting (§2.3)."""

from functools import partial

import pytest

from repro.apps.microburst import (MicroburstAggregator, QueueSample,
                                   microburst_scenario, microburst_tpp)
from repro.apps.netsight import (PACKET_HISTORY_TPP_SOURCE, HistoryStore,
                                 HopRecord, NetSightAggregator, NetWatch,
                                 PacketHistory, history_bandwidth_overhead,
                                 history_from_tpp, history_overhead_bytes,
                                 packet_history_tpp)
from repro.net import mbps, udp_packet
from repro.session import Scenario


class TestMicroburstTpp:
    def test_program_matches_paper(self):
        compiled = microburst_tpp()
        assert len(compiled.tpp.instructions) == 3
        assert compiled.values_per_hop == 3

    def test_overhead_is_54_bytes_for_5_hops(self):
        # §2.1: 12 B header + 12 B instructions + 6 B/hop over 5 hops.
        assert microburst_tpp(num_hops=5).tpp.wire_length() == 54

    def test_aggregator_groups_samples_per_queue(self):
        aggregator = MicroburstAggregator("h0")
        tpp = microburst_tpp(num_hops=4).clone_tpp()
        for switch_id, port, occupancy in ((1, 2, 5), (2, 0, 0)):
            tpp.push(switch_id)
            tpp.push(port)
            tpp.push(occupancy)
            tpp.advance_hop()
        packet = udp_packet("h0", "h5", 100)
        packet.delivered_at = 1.25
        aggregator.on_tpp(tpp, packet)
        summary = aggregator.summarize()
        assert summary["counters"]["samples"] == 2
        assert summary["queue_series"].keys() == [(1, 2), (2, 0)]
        assert summary["queue_series"].series((1, 2)) == [(1.25, 5)]


    def test_aggregator_skips_a_partial_hop(self):
        # A hop that ran out of room mid-program leaves fewer than three words.
        aggregator = MicroburstAggregator("h0")
        tpp = microburst_tpp(num_hops=3).clone_tpp()
        for word in (1, 2, 5, 3, 1):
            tpp.push(word)
        aggregator.on_tpp(tpp, udp_packet("h0", "h5", 100))
        summary = aggregator.summarize()
        assert summary["counters"]["samples"] == 1
        assert summary["queue_series"].series((1, 2)) == [(0.0, 5)]
        assert summary["busiest_queues"].counts == {(1, 2): 1}

class TestMicroburstExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return microburst_scenario(link_rate_bps=mbps(10), offered_load=0.4,
                                   seed=2).run(duration_s=0.6)

    def test_samples_collected_from_instrumented_packets(self, result):
        assert result.packets_instrumented > 100
        assert len(result.samples) > 100

    def test_samples_read_the_merged_series_canonically(self, result):
        # Equal-time samples order by queue (its repr), then occupancy.
        assert all(isinstance(s, QueueSample) for s in result.samples)
        order = [(s.time, repr(s.queue_key), s.occupancy_packets)
                 for s in result.samples]
        assert order == sorted(order)
        assert sum(len(result.series[q]) for q in result.observed_queues) \
            == len(result.samples)

    def test_queues_on_both_switches_observed(self, result):
        switch_ids = {switch for switch, _ in result.observed_queues}
        assert {1, 2} <= switch_ids

    def test_bursts_visible_at_packet_granularity(self, result):
        # The all-to-all incast workload must produce at least one queue that
        # is often empty yet spikes to several packets (the Figure 1b shape).
        bursty = [q for q in result.observed_queues if result.max_occupancy(q) >= 3]
        assert bursty
        mostly_empty = [q for q in bursty if result.fraction_empty(q) > 0.3]
        assert mostly_empty

    def test_cdf_is_monotone(self, result):
        queue = result.observed_queues[0]
        points = result.queue_cdf(queue)
        fractions = [fraction for _, fraction in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)


def _history(src="h0", dst="h1", hops=((1, 10, 0), (2, 20, 1))):
    return PacketHistory(src=src, dst=dst, protocol="udp", sport=1, dport=2, flow_id=3,
                         delivered_at=0.0,
                         hops=[HopRecord(*hop) for hop in hops])


class TestPacketHistories:
    def test_history_from_tpp(self):
        compiled = packet_history_tpp(num_hops=4)
        tpp = compiled.clone_tpp()
        for values in ((1, 17, 0), (2, 33, 3)):
            for value in values:
                tpp.push(value)
            tpp.advance_hop()
        packet = udp_packet("h0", "h5", 100, dport=80)
        packet.delivered_at = 0.5
        history = history_from_tpp(tpp, packet)
        assert history.switch_path == [1, 2]
        assert history.hops[1].matched_entry_id == 33
        assert history.matched_entry_at(1) == 17
        assert history.matched_entry_at(9) is None

    def test_overhead_matches_paper(self):
        # §2.3: 12 B instructions + 6 B/hop * 10 hops + 12 B header = 84 B,
        # i.e. 8.4 % of a 1000 B packet.
        assert history_overhead_bytes(num_hops=10) == 84
        assert history_bandwidth_overhead(1000, 10) == pytest.approx(0.084)
        assert history_bandwidth_overhead(1000, 10, sample_frequency=10) == pytest.approx(0.0084)

    def test_store_queries(self):
        store = HistoryStore()
        store.add(_history(hops=((1, 5, 0), (2, 6, 1))))
        store.add(_history(src="h9", hops=((1, 5, 0), (3, 7, 1))))
        assert len(store.packets_through_switch(1)) == 2
        assert len(store.packets_through_switch(3)) == 1
        assert len(store.packets_between("h0", "h1")) == 1
        assert store.path_counts()[(1, 2)] == 1
        assert store.entry_usage()[(1, 5)] == 2

    def test_ndb_style_predicate(self):
        store = HistoryStore()
        store.add(_history(hops=((1, 5, 0), (2, 6, 1))))
        matches = store.query(lambda h: h.traversed(2) and h.src == "h0")
        assert len(matches) == 1


class TestNetWatch:
    def test_isolation_policy(self):
        watch = NetWatch()
        watch.add_isolation_policy("tenantA-vs-B", "tenantA_", "tenantB_")
        ok = _history(src="tenantA_1", dst="tenantA_2")
        bad = _history(src="tenantA_1", dst="tenantB_9")
        assert watch.check(ok) == []
        assert len(watch.check(bad)) == 1
        assert watch.violations[0].policy == "tenantA-vs-B"

    def test_waypoint_policy(self):
        watch = NetWatch()
        watch.add_waypoint_policy("through-firewall", "h", waypoint_switch=7)
        assert watch.check(_history(hops=((7, 1, 0), (2, 1, 1)))) == []
        assert len(watch.check(_history(hops=((1, 1, 0), (2, 1, 1))))) == 1

    def test_loop_freedom_policy(self):
        watch = NetWatch()
        watch.add_loop_freedom_policy()
        assert watch.check(_history(hops=((1, 0, 0), (2, 0, 0)))) == []
        assert len(watch.check(_history(hops=((1, 0, 0), (2, 0, 0), (1, 0, 0))))) == 1


def _send_two_packets(experiment):
    experiment.host("h0").send(udp_packet("h0", "h5", 500, dport=80))
    experiment.host("h1").send(udp_packet("h1", "h2", 500, dport=80))


class TestNetSightDeployment:
    def test_end_to_end_history_collection(self):
        watch = NetWatch()
        watch.add_loop_freedom_policy()
        result = (Scenario("dumbbell", link_rate_bps=mbps(10))
                  .tpp("netsight", PACKET_HISTORY_TPP_SOURCE, num_hops=10,
                       aggregator=partial(NetSightAggregator, netwatch=watch))
                  .setup(_send_two_packets)
                  .run(duration_s=0.05))
        aggregators = result.aggregators("netsight")
        histories = aggregators["h5"].store
        assert len(histories) == 1
        assert histories.histories[0].switch_path == [1, 2]   # both switches crossed
        assert aggregators["h2"].store.histories[0].switch_path == [1]
        assert watch.violations == []
