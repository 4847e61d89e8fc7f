#!/usr/bin/env python3
"""A network debugger built on packet histories (§2.3 and §2.6).

This example plays the role of the operator in the paper's introduction:

1. compose a leaf-spine fabric with NetSight-style packet-history collection
   as one Scenario, and keep the live :class:`~repro.session.Experiment`
   (``.build()`` instead of ``.run()``) so the fault can be injected mid-run,
2. install a *deliberately wrong* forwarding entry on one switch,
3. let netwatch catch the policy violation and use the ndb-style query
   interface to pinpoint exactly where the misrouted packets diverged,
4. fail a fabric link and let :func:`verification_scenario`
   measure how long forwarding takes to converge onto the backup route —
   per-packet path visibility makes this direct to observe.

Run with:  python examples/network_debugger.py
"""

import os

from repro.apps.netsight import (NetSightAggregator, NetWatch,
                                 PACKET_HISTORY_TPP_SOURCE)
from repro.apps.netverify import RouteVerifier, verification_scenario
from repro.net import mbps, udp_packet
from repro.session import Scenario

DURATION_SCALE = float(os.environ.get("REPRO_DURATION_SCALE", "1"))


def main() -> None:
    # --- 1. fabric + packet-history collection + a waypoint policy ----------
    watch = NetWatch()

    def aggregator(host_name):
        return NetSightAggregator(host_name, netwatch=watch)

    experiment = (Scenario("leaf-spine", seed=1, num_leaves=2, num_spines=2,
                           hosts_per_leaf=2, link_rate_bps=mbps(10))
                  .tpp("netsight", PACKET_HISTORY_TPP_SOURCE, num_hops=10,
                       aggregator=aggregator)
                  .build())
    network, sim = experiment.network, experiment.sim
    src, victim, dst = "h0_0", "h0_1", "h1_1"
    leaf1_id = network.switches["leaf1"].switch_id
    watch.add_waypoint_policy("cross-fabric traffic must reach leaf1", "h0_",
                              waypoint_switch=leaf1_id)

    # --- 2. a misconfiguration: leaf0 bounces dst-bound packets to a local host
    wrong_port = network.ports_towards("leaf0", victim)[0]
    network.switches["leaf0"].install_route(dst, wrong_port, priority=99)

    for i in range(5):
        network.hosts[src].send(udp_packet(src, dst, 600, dport=5000 + i))
    sim.run(until=0.1)

    # --- 3. netwatch + ndb ---------------------------------------------------
    print(f"netwatch violations: {len(watch.violations)}")
    for violation in watch.violations[:2]:
        history = violation.history
        print(f"  [{violation.policy}] {history.src}->{history.dst} took switch path "
              f"{history.switch_path} ({violation.detail})")

    verifier = RouteVerifier(network)
    store = experiment.apps["netsight"].aggregators[victim].store
    misrouted = store.query(lambda h: h.dst == dst)
    expected = verifier.expected_switch_path(src, dst)
    print(f"\nndb: {len(misrouted)} packets destined to {dst} were delivered to {victim}")
    if misrouted:
        check = verifier.verify(expected, misrouted[0].switch_path)
        if check.divergence_hop is not None and check.divergence_hop < len(check.observed):
            culprit = check.observed[check.divergence_hop]
        else:
            # The observed path ended early: the last switch it did reach
            # forwarded it off the expected route.
            culprit = check.observed[-1] if check.observed else "?"
        print(f"  expected switch path {check.expected}, observed {check.observed}; "
              f"first divergence at hop {check.divergence_hop} -> the bad entry is on "
              f"switch {culprit}")
    experiment.finish()

    # --- 4. route-convergence measurement after a link failure ---------------
    # A fresh scenario: probe the path every 2 ms, fail the active spine
    # uplink at t=0.2s, reroute 30 ms later, and report the convergence time.
    print("\nfailing the active spine uplink at t=0.2s and probing the path every 2 ms...")
    result = verification_scenario(
        src=src, dst=dst, failure_time=0.2, reroute_delay_s=0.03,
        probe_interval_s=2e-3, link_rate_bps=mbps(10),
    ).run(duration_s=max(0.5 * DURATION_SCALE, 0.3))
    convergence = result.convergence
    print(f"  pre-failure path verified against control-plane intent: "
          f"{result.pre_failure.matches} (path {result.pre_failure.observed})")
    print(f"  probes sent: {result.probes_sent}, path observations collected: "
          f"{len(convergence.observations)}")
    if convergence.converged_time is not None:
        print(f"  first probe over the backup path at "
              f"t={convergence.converged_time * 1e3:.1f} ms -> convergence took "
              f"{convergence.convergence_seconds * 1e3:.1f} ms")
    else:
        print("  no probe made it over the backup path (unexpected)")


if __name__ == "__main__":
    main()
