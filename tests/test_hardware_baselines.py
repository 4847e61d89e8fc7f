"""Tests for the §6 hardware models and the remaining baselines."""

import pytest

from repro.baselines import PollingMonitor, run_tcp_overhead_experiment
from repro.baselines.ecmp import hash_split
from repro.baselines.exact_counter import ExactDistinctCounter
from repro.apps.sketches import LinkKey
from repro.core.assembler import parse_program
from repro.hardware import (ASIC, NETFPGA, NETFPGA_TABLE4_PAPER_PERCENT, TABLE5_PAPER_GBPS,
                            EndHostCostModel, asic_tcpu_area_percent, build_area_report,
                            build_latency_report, buffering_for_stall_bytes,
                            netfpga_percent_extra, packetization_latency_ns,
                            relative_latency_increase, worst_case_tpp)
from repro.net import MessageWorkload, Simulator, build_dumbbell, mbps


class TestLatencyModel:
    def test_worst_case_asic_latency_is_50ns(self):
        report = build_latency_report(ASIC)
        assert report.worst_case_added_ns == pytest.approx(50.0)

    def test_buffering_matches_paper(self):
        assert buffering_for_stall_bytes(50.0, 1e12) == pytest.approx(6250)

    def test_relative_increase_band(self):
        low, high = relative_latency_increase(50.0)
        assert low == pytest.approx(0.10)
        assert high == pytest.approx(0.25)

    def test_packetization_latency(self):
        assert packetization_latency_ns(64, 10e9) == pytest.approx(51.2)

    def test_netfpga_per_stage_cost_small(self):
        report = build_latency_report(NETFPGA)
        assert report.added_per_stage_cycles <= 3.5
        assert report.worst_case_added_ns < 100

    def test_read_only_tpp_costs_less_than_worst_case(self):
        reads = parse_program("PUSH [Switch:SwitchID]\nPUSH [Queue:QueueOccupancy]\n"
                              "PUSH [Link:TX-Utilization]")
        added = ASIC.tpp_added_latency_ns(reads)
        assert added < ASIC.tpp_added_latency_ns(worst_case_tpp())
        assert added == pytest.approx(3 * 5, rel=0.01)   # three 5-cycle reads at 1 GHz

    def test_asic_baseline_per_stage_dominates_tpp_cost(self):
        # The TPP's added per-stage cost is small next to the switch's own
        # 50-100 cycle per-stage latency (the paper's argument).
        report = build_latency_report(ASIC)
        assert report.added_per_stage_cycles < report.baseline_per_stage_cycles


class TestAreaModel:
    def test_netfpga_percentages_match_paper(self):
        computed = netfpga_percent_extra()
        for name, expected in NETFPGA_TABLE4_PAPER_PERCENT.items():
            assert computed[name] == pytest.approx(expected, abs=0.1)

    def test_asic_area_fraction(self):
        assert asic_tcpu_area_percent() == pytest.approx(0.32)
        assert asic_tcpu_area_percent(instructions_per_packet=10) == pytest.approx(0.64)
        with pytest.raises(ValueError):
            asic_tcpu_area_percent(rmt_processing_units=0)

    def test_area_report(self):
        report = build_area_report()
        assert report.asic_tcpu_units == 320
        assert report.max_netfpga_percent_extra < 31


class TestEndHostModel:
    def test_table5_shape_reproduced(self):
        model = EndHostCostModel()
        for scenario, rows in TABLE5_PAPER_GBPS.items():
            for rules, paper_gbps in rows.items():
                modeled = model.filter_chain_throughput_bps(rules, scenario) / 1e9
                assert modeled == pytest.approx(paper_gbps, rel=0.25), (scenario, rules)

    def test_first_and_last_scenarios_identical(self):
        model = EndHostCostModel()
        for rules in (0, 1, 10, 100, 1000):
            assert model.filter_chain_throughput_bps(rules, "first") == \
                model.filter_chain_throughput_bps(rules, "last")

    def test_all_scenario_is_never_faster(self):
        model = EndHostCostModel()
        for rules in (10, 100, 1000):
            assert model.filter_chain_throughput_bps(rules, "all") <= \
                model.filter_chain_throughput_bps(rules, "first")

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ValueError):
            EndHostCostModel().filter_chain_throughput_bps(10, "middle")

    def test_figure10_goodput_falls_with_sampling_rate(self):
        model = EndHostCostModel()
        goodputs = [model.application_goodput_bps(1, s) for s in (1, 10, 20, float("inf"))]
        assert goodputs == sorted(goodputs)
        assert goodputs[-1] == pytest.approx(4.0e9, rel=0.01)
        # Stamping every packet costs roughly the TPP header fraction (~15 %).
        assert goodputs[0] / goodputs[-1] == pytest.approx(1500 / 1760, rel=0.1)

    def test_figure10_network_throughput_nearly_flat(self):
        model = EndHostCostModel()
        with_tpps = model.network_throughput_bps(20, 1)
        without = model.network_throughput_bps(20, float("inf"))
        assert abs(with_tpps - without) / without < 0.1

    def test_more_flows_more_throughput(self):
        model = EndHostCostModel()
        assert model.application_goodput_bps(20, float("inf")) > \
            model.application_goodput_bps(1, float("inf"))


class TestEcmpBaseline:
    def test_hash_split_covers_all_paths_and_flows(self):
        split = hash_split("L1", "L2", list(range(20000, 20024)), num_paths=2,
                           flow_rate_bps=10e6)
        assert sum(split.flows_per_path.values()) == 24
        assert set(split.flows_per_path) == {0, 1}
        assert split.max_load_bps >= 12 * 10e6 * 0.5


class TestPollingMonitorBaseline:
    def test_polling_misses_bursts_that_tpps_catch(self):
        sim = Simulator()
        network = build_dumbbell(sim, link_rate_bps=mbps(10))
        hosts = list(network.hosts.values())
        monitor = PollingMonitor(sim, network, poll_interval_s=0.5)
        MessageWorkload(sim, hosts, link_rate_bps=mbps(10), offered_load=0.4,
                        message_bytes=10_000, seed=2)
        sim.run(until=1.5)
        monitor.stop()
        network.stop_switch_processes()
        # The workload certainly built queues (thousands of packets were
        # forwarded), but a 0.5 s poller collects only a handful of samples —
        # orders of magnitude less coverage than per-packet TPP sampling —
        # and most of what it sees is an empty or near-empty queue.
        assert monitor.polls >= 2
        assert monitor.samples_total() > 0
        packets_forwarded = sum(s.packets_forwarded for s in network.switches.values())
        assert packets_forwarded > 50 * monitor.samples_total()
        all_samples = [value for series in monitor.series.values() for value in series.values]
        near_empty = sum(1 for value in all_samples if value <= 2)
        assert near_empty / len(all_samples) >= 0.5


class TestExactCounter:
    def test_counts_and_errors(self):
        counter = ExactDistinctCounter()
        key = LinkKey(1, 0)
        for element in ("a", "b", "b", "c"):
            counter.add(key, element)
        assert counter.count(key) == 3
        assert counter.counts() == {key: 3}
        assert counter.relative_error(key, 3.3) == pytest.approx(0.1)
        assert counter.relative_error(LinkKey(9, 9), 0) == 0.0
        assert counter.memory_bytes() == 3 * 64


class TestTcpOverheadBaseline:
    def test_overhead_in_paper_band(self):
        result = run_tcp_overhead_experiment(num_flows=3, duration_s=2.0,
                                             link_rate_bps=mbps(10))
        assert 0.005 < result.overhead_fraction < 0.035
        assert result.mean_goodput_bps > 0
        with pytest.raises(ValueError):
            run_tcp_overhead_experiment(num_flows=0)
