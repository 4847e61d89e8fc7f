"""E1 — Figure 1: micro-burst detection via per-packet queue occupancy (§2.1).

Regenerates the Figure 1b data: per-queue occupancy samples collected from
every packet of an all-to-all 10 kB-message workload at 30 % load on a
six-host dumbbell.  The paper's qualitative claims checked here:

* one of the observed queues is empty for a large fraction (~80 %) of packet
  arrivals, yet spikes to ~20 packets — the micro-burst a sampling monitor
  would miss;
* the per-packet TPP adds 54 bytes for a 5-hop datacenter (12 B header,
  12 B instructions, 6 B per hop).
"""

import pytest

from repro.apps.microburst import microburst_scenario, microburst_tpp
from repro.core.tcpu import PacketContext, TCPU
from repro.net import mbps
from repro.stats import ExperimentSummary


@pytest.fixture(scope="module")
def experiment():
    return microburst_scenario(link_rate_bps=mbps(10), offered_load=0.3,
                               message_bytes=10_000, seed=1).run(duration_s=1.5)


def test_fig1_microburst(benchmark, experiment, print_summary):
    # Micro-kernel: executing the 3-instruction micro-burst TPP on a dict-backed
    # memory — the per-hop work a switch does for every instrumented packet.
    compiled = microburst_tpp(num_hops=6)

    class _Memory:
        def read(self, address, context):
            return 7

        def write(self, address, value, context):
            return True

    tcpu, memory, context = TCPU(), _Memory(), PacketContext()

    def run_once():
        tpp = compiled.clone_tpp()
        tcpu.execute(tpp, memory, context)
        return tpp

    benchmark(run_once)

    busiest = max(experiment.observed_queues, key=experiment.max_occupancy)
    summary = ExperimentSummary("E1 / Figure 1b", "Micro-burst detection on a dumbbell")
    summary.add("per-packet TPP overhead (5 hops)", 54,
                microburst_tpp(num_hops=5).tpp.wire_length(), unit="bytes")
    summary.add("queue samples collected", None, float(len(experiment.samples)),
                note="one sample per hop per instrumented packet")
    summary.add("distinct queues observed", 6.0, float(len(experiment.observed_queues)),
                note="paper plots 6 queues")
    summary.add("peak occupancy on busiest queue", 25.0,
                float(experiment.max_occupancy(busiest)), unit="pkts",
                note="paper's bursts reach ~20-25 packets")
    summary.add("fraction of arrivals finding an empty queue", 0.8,
                round(max(experiment.fraction_empty(q)
                          for q in experiment.observed_queues), 3),
                note="paper: one queue empty at ~80% of arrivals")
    print_summary(summary)

    assert experiment.max_occupancy(busiest) >= 3
    assert len(experiment.observed_queues) >= 4
