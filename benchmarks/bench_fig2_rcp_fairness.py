"""E2 — Figure 2: RCP* max-min versus proportional fairness (§2.2).

Three flows on a two-bottleneck chain: flow *a* crosses both links, *b* and
*c* one each.  Max-min RCP* should allocate each flow half a link;
proportional-fair RCP* should give *a* one third and *b*/*c* two thirds.
The run is scaled to 10 Mb/s links (fairness shares are rate-relative), so
the paper's 100 Mb/s allocations map to 5 / 5 / 5 and 3.3 / 6.7 / 6.7 Mb/s.
"""

import pytest

from repro.apps.rcp import (ALPHA_MAXMIN, ALPHA_PROPORTIONAL, RcpParameters, alpha_fair_rate,
                            expected_fair_shares, rcp_scenario, rcp_update)
from repro.net import mbps
from repro.stats import ExperimentSummary

LINK_RATE = mbps(10)


@pytest.fixture(scope="module")
def maxmin():
    return rcp_scenario(alpha=ALPHA_MAXMIN,
                        link_rate_bps=LINK_RATE).run(duration_s=10.0)


@pytest.fixture(scope="module")
def proportional():
    return rcp_scenario(alpha=ALPHA_PROPORTIONAL,
                        link_rate_bps=LINK_RATE).run(duration_s=10.0)


def test_fig2_rcp_fairness(benchmark, maxmin, proportional, print_summary):
    # Micro-kernel: one full control-loop computation (RCP update + α-fair
    # aggregation across 3 hops), the per-period work each flow's controller does.
    params = RcpParameters()

    def control_round():
        rates = [rcp_update(5e6, 9e6, 4000, LINK_RATE, params) for _ in range(3)]
        return alpha_fair_rate(rates, ALPHA_MAXMIN)

    benchmark(control_round)

    summary = ExperimentSummary("E2 / Figure 2", "RCP* fairness allocations (Mb/s)")
    for alpha, label, result in ((ALPHA_MAXMIN, "max-min", maxmin),
                                 (ALPHA_PROPORTIONAL, "proportional", proportional)):
        expected = expected_fair_shares(alpha, LINK_RATE)
        for flow in ("a", "b", "c"):
            summary.add(f"{label:12s} flow {flow}", round(expected[flow] / 1e6, 2),
                        round(result.mean_throughput_bps[flow] / 1e6, 2), unit="Mb/s")
    print_summary(summary)

    maxmin_expected = expected_fair_shares(ALPHA_MAXMIN, LINK_RATE)
    for flow in ("a", "b", "c"):
        assert maxmin.mean_throughput_bps[flow] == \
            pytest.approx(maxmin_expected[flow], rel=0.3)
    assert (proportional.mean_throughput_bps["b"]
            > 1.5 * proportional.mean_throughput_bps["a"])
