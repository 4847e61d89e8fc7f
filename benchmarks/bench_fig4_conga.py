"""E5 — Figure 4: CONGA*-style load balancing versus ECMP (§2.4).

Two leaves send to a third over a two-spine fabric: L0→L2 demands 50 % of a
link and has one path; L1→L2 demands 120 % and has two.  ECMP splits L1's
flows evenly and saturates the path shared with L0; CONGA* probes both paths
with TPPs and shifts flowlets until both demands are met at lower maximum
utilisation (the paper's 100 % vs 85 %).  Demands are expressed as fractions
of the (scaled-down) fabric link rate.
"""

import pytest

from repro.apps.conga import conga_scenario
from repro.baselines.ecmp import expected_figure4_conga, expected_figure4_ecmp
from repro.core.compiler import compile_tpp
from repro.apps.conga import PROBE_TPP_SOURCE
from repro.net import mbps
from repro.stats import ExperimentSummary

LINK_RATE = mbps(10)


@pytest.fixture(scope="module")
def ecmp():
    return conga_scenario("ecmp", link_rate_bps=LINK_RATE).run(duration_s=8.0)


@pytest.fixture(scope="module")
def conga():
    return conga_scenario("conga", link_rate_bps=LINK_RATE).run(duration_s=8.0)


def test_fig4_conga_vs_ecmp(benchmark, ecmp, conga, print_summary):
    # Micro-kernel: compiling and cloning the path-probe TPP (per probing round).
    compiled = compile_tpp(PROBE_TPP_SOURCE, num_hops=8)
    benchmark(lambda: compiled.clone_tpp())

    paper_ecmp = expected_figure4_ecmp(LINK_RATE, 0.5 * LINK_RATE, 1.2 * LINK_RATE)
    paper_conga = expected_figure4_conga(LINK_RATE, 0.5 * LINK_RATE, 1.2 * LINK_RATE)

    summary = ExperimentSummary("E5 / Figure 4", "Load balancing: achieved throughput (Mb/s)")
    summary.add("ECMP   L0:L2 (demand 5)", round(paper_ecmp["L0:L2"] / 1e6, 2),
                round(ecmp.achieved_bps["L0:L2"] / 1e6, 2), unit="Mb/s")
    summary.add("ECMP   L1:L2 (demand 12)", round(paper_ecmp["L1:L2"] / 1e6, 2),
                round(ecmp.achieved_bps["L1:L2"] / 1e6, 2), unit="Mb/s")
    summary.add("ECMP   max fabric utilisation", paper_ecmp["max_utilization"],
                round(ecmp.max_core_utilization, 2))
    summary.add("CONGA* L0:L2 (demand 5)", round(paper_conga["L0:L2"] / 1e6, 2),
                round(conga.achieved_bps["L0:L2"] / 1e6, 2), unit="Mb/s")
    summary.add("CONGA* L1:L2 (demand 12)", round(paper_conga["L1:L2"] / 1e6, 2),
                round(conga.achieved_bps["L1:L2"] / 1e6, 2), unit="Mb/s")
    summary.add("CONGA* max fabric utilisation", paper_conga["max_utilization"],
                round(conga.max_core_utilization, 2))
    print_summary(summary)

    # Shape checks: who wins and roughly by how much.
    assert ecmp.achieved_bps["L1:L2"] < 0.99 * ecmp.demand_bps["L1:L2"]
    assert conga.achieved_fraction("L1:L2") > 0.95
    assert conga.achieved_fraction("L0:L2") > 0.9
    assert conga.max_core_utilization <= ecmp.max_core_utilization
    assert ecmp.max_core_utilization > 0.97
