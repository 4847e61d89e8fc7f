"""E3 — §2.2 "Overheads": RCP* control-traffic overhead versus TCP.

The paper reports the bandwidth consumed by RCP*'s control TPPs as 1.0–6.0 %
of the flows' rate (3 → 99 long-lived flows), against TCP's 0.8–2.4 % of ack
overhead.  The reproduction measures both on the same two-bottleneck chain
(flow counts scaled to keep the discrete-event run short).
"""

import pytest

from repro.apps.rcp import ALPHA_MAXMIN, rcp_scenario
from repro.baselines.tcp_baseline import run_tcp_overhead_experiment
from repro.core.compiler import compile_tpp
from repro.apps.rcp import COLLECT_TPP_SOURCE
from repro.net import mbps
from repro.stats import ExperimentSummary


@pytest.fixture(scope="module")
def rcp_run():
    return rcp_scenario(alpha=ALPHA_MAXMIN,
                        link_rate_bps=mbps(10)).run(duration_s=8.0)


@pytest.fixture(scope="module")
def tcp_runs():
    return {n: run_tcp_overhead_experiment(num_flows=n, duration_s=4.0,
                                           link_rate_bps=mbps(10))
            for n in (3, 9)}


def test_rcp_control_overhead_vs_tcp(benchmark, rcp_run, tcp_runs, print_summary):
    # Micro-kernel: compiling the collect TPP — the per-deployment cost of the
    # control loop's probe template.
    benchmark(lambda: compile_tpp(COLLECT_TPP_SOURCE, num_hops=8))

    summary = ExperimentSummary("E3 / §2.2 overheads",
                                "Control-traffic overhead (fraction of flow bytes)")
    summary.add("RCP* TPP overhead, 3 flows (paper band 0.01-0.06)", 0.06,
                round(rcp_run.control_overhead_fraction, 4),
                note="paper upper bound of the 3..99-flow band")
    for flows, run in tcp_runs.items():
        summary.add(f"TCP ack overhead, {flows} flows (paper band 0.008-0.024)", 0.024,
                    round(run.overhead_fraction, 4))
    print_summary(summary)

    assert 0.005 < rcp_run.control_overhead_fraction < 0.10
    for run in tcp_runs.values():
        assert 0.005 < run.overhead_fraction < 0.035
    # The ordering the paper reports: TCP's overhead is slightly lower.
    assert min(r.overhead_fraction for r in tcp_runs.values()) < rcp_run.control_overhead_fraction
