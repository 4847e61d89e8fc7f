"""Macro-benchmark: raw event and TPP-hop throughput of the hot path.

Unlike the figure benchmarks (which reproduce one of the paper's plots),
this benchmark locks in the performance of the simulator's execution chain
itself — ``Simulator.run`` → ``Port`` transmit state machine →
``TPPSwitch`` receive → ``Pipeline`` lookup → ``TCPU.execute_program`` —
so regressions in the hot path show up as a number, not a feeling.

Workload: a 3-tier fat-tree (k=4: core, aggregation, edge — 20 switches,
16 hosts), composed through the :class:`repro.session.Scenario` API: every
host's end-host shim stamps each UDP packet with a two-instruction TPP
(``PUSH [Switch:SwitchID]`` / ``PUSH [Queue:QueueOccupancy]``), and the
registered ``cross-pod-bursts`` workload sends periodic bursts to a
cross-pod partner through
:meth:`repro.endhost.dataplane.DataplaneShim.send_burst`.  Reported:

* **events/sec** — discrete events executed per wall-clock second,
* **TPP-hops/sec** — TPP executions (one per switch traversal) per second.

The simulation itself is deterministic: for a given ``--duration`` the
event count, TPP-hop count, and per-flow delivery totals are identical on
every run and on every machine; only the wall-clock rates vary.

TCPU engines
------------

``--traces`` runs the workload with the compiled-trace TCPU
(:mod:`repro.core.trace`) instead of the interpreter.
``--compare-traces`` runs *both* engines back to back, asserts they land
on byte-identical event/hop/packet totals, reports the events/sec
speedup, and records the comparison in a JSON artifact
(``BENCH_tcpu_trace.json`` by default, see ``--output``).

Usage::

    PYTHONPATH=src python benchmarks/bench_event_throughput.py [--quick]
    PYTHONPATH=src python benchmarks/bench_event_throughput.py --duration 0.02
    PYTHONPATH=src python benchmarks/bench_event_throughput.py --compare-traces --quick
"""

from __future__ import annotations

import argparse
import time

import _provenance
from repro import obs
from repro.endhost.filters import PacketFilter
from repro.net.link import gbps
from repro.session import Scenario

#: Packets per burst and burst cadence per host.
BURST_PACKETS = 8
BURST_INTERVAL_S = 100e-6
PAYLOAD_BYTES = 700

TPP_SOURCE = "PUSH [Switch:SwitchID]\nPUSH [Queue:QueueOccupancy]"

#: The events/sec speedup --compare-traces is expected to demonstrate.
EXPECTED_TRACE_SPEEDUP = 1.15


def build_workload(compile_traces: bool = False, telemetry=None, recorder=None):
    """The 3-tier topology plus per-host burst generators, via one Scenario.

    ``recorder`` (a :class:`repro.obs.RecorderSpec`) attaches the flight
    recorder to the identical workload — the lever
    ``bench_flightrec_overhead.py`` uses to price the observation hooks.
    """
    scenario = (
        Scenario("fat-tree", seed=1, name="event-throughput",
                 k=4, link_rate_bps=gbps(1), link_delay_s=5e-6,
                 compile_traces=compile_traces)
        .tpp("event-throughput", TPP_SOURCE, num_hops=8,
             filter=PacketFilter(protocol="udp"))
        .workload("cross-pod-bursts", burst_packets=BURST_PACKETS,
                  burst_interval_s=BURST_INTERVAL_S, payload_bytes=PAYLOAD_BYTES))
    if recorder is not None:
        scenario.flight_recorder(recorder)
    return scenario.build(telemetry=telemetry)


def run_once(duration_s: float, compile_traces: bool = False,
             recorder=None) -> dict:
    experiment = build_workload(compile_traces=compile_traces,
                                recorder=recorder)
    sim, net = experiment.sim, experiment.network
    start = time.perf_counter()
    sim.run(until=duration_s)
    wall_s = time.perf_counter() - start
    tpp_hops = sum(switch.tcpu.tpps_executed for switch in net.switches.values())
    instructions = sum(switch.tcpu.instructions_executed
                       for switch in net.switches.values())
    forwarded = sum(switch.packets_forwarded for switch in net.switches.values())
    trace_execs = sum(switch.tcpu.trace_executions for switch in net.switches.values())
    return {
        "duration_s": duration_s,
        "wall_s": wall_s,
        "events": sim.events_executed,
        "events_per_s": sim.events_executed / wall_s,
        "tpp_hops": tpp_hops,
        "tpp_hops_per_s": tpp_hops / wall_s,
        "instructions": instructions,
        "packets_forwarded": forwarded,
        "compile_traces": compile_traces,
        "trace_executions": trace_execs,
        "traces_compiled": sum(switch.tcpu.traces_compiled
                               for switch in net.switches.values()),
    }


def run_best(duration_s: float, repeat: int, compile_traces: bool = False,
             recorder=None) -> dict:
    """Best (highest events/sec) of ``repeat`` runs."""
    best = None
    for _ in range(max(1, repeat)):
        result = run_once(duration_s, compile_traces=compile_traces,
                          recorder=recorder)
        if best is None or result["events_per_s"] > best["events_per_s"]:
            best = result
    return best


def print_result(result: dict) -> None:
    engine = "compiled traces" if result["compile_traces"] else "interpreter"
    print(f"3-tier fat-tree (k=4), {result['duration_s'] * 1e3:g} ms simulated, "
          f"TCPU engine: {engine}")
    print(f"  events executed     : {result['events']:,}")
    print(f"  TPP hops executed   : {result['tpp_hops']:,} "
          f"({result['instructions']:,} instructions)")
    print(f"  packets forwarded   : {result['packets_forwarded']:,}")
    print(f"  wall time           : {result['wall_s']:.3f} s")
    print(f"  events/sec          : {result['events_per_s']:,.0f}")
    print(f"  TPP-hops/sec        : {result['tpp_hops_per_s']:,.0f}")


def compare_traces(duration_s: float, repeat: int, output: str) -> None:
    """Interpreter vs compiled traces on the identical workload + artifact."""
    interpreted = run_best(duration_s, repeat, compile_traces=False)
    compiled = run_best(duration_s, repeat, compile_traces=True)

    # The compiled engine must change nothing but speed.
    for field in ("events", "tpp_hops", "instructions", "packets_forwarded"):
        assert interpreted[field] == compiled[field], \
            f"{field} diverged: interpreted {interpreted[field]:,} " \
            f"vs compiled {compiled[field]:,}"
    assert compiled["trace_executions"] == compiled["tpp_hops"], \
        "every TPP hop should have taken the compiled trace"

    speedup = compiled["events_per_s"] / interpreted["events_per_s"]
    print_result(interpreted)
    print()
    print_result(compiled)
    print()
    print(f"compiled-trace speedup: {speedup:.3f}x events/sec "
          f"({interpreted['events_per_s']:,.0f} -> {compiled['events_per_s']:,.0f}); "
          f"identical totals ({compiled['events']:,} events / "
          f"{compiled['tpp_hops']:,} TPP hops)")
    if speedup < EXPECTED_TRACE_SPEEDUP:
        print(f"  WARNING: below the expected {EXPECTED_TRACE_SPEEDUP:.2f}x "
              f"(noisy machine?)")

    artifact = {
        "benchmark": "bench_event_throughput --compare-traces",
        "workload": {
            "topology": "fat-tree k=4 (20 switches, 16 hosts)",
            "tpp": TPP_SOURCE.replace("\n", "; "),
            "duration_s": duration_s,
            "burst_packets": BURST_PACKETS,
            "burst_interval_s": BURST_INTERVAL_S,
            "payload_bytes": PAYLOAD_BYTES,
            "repeat": repeat,
        },
        "interpreted": interpreted,
        "compiled": compiled,
        "events_per_s_speedup": round(speedup, 4),
        "identical_totals": True,
    }
    _provenance.write_artifact(artifact, output)
    print(f"  artifact written    : {output}")


def profile(duration_s: float, compile_traces: bool, trace_output: str) -> None:
    """One instrumented run: Perfetto trace out, top-5 span self-times."""
    telemetry = obs.Telemetry(slices=8)
    experiment = build_workload(compile_traces=compile_traces,
                                telemetry=telemetry)
    result = experiment.run(duration_s)
    obs.write_trace(telemetry, trace_output)
    print(f"profiled run: {result.events_executed:,} events over "
          f"{duration_s * 1e3:g} ms simulated")
    print(f"  Perfetto trace      : {trace_output} "
          f"(open in https://ui.perfetto.dev)")
    print("  top-5 span self-times:")
    top = sorted(telemetry.self_times().items(), key=lambda kv: -kv[1])[:5]
    for name, self_s in top:
        print(f"    {name:<22s} {self_s * 1e3:10.3f} ms")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=10e-3,
                        help="simulated seconds to run (default 10ms)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 2ms of simulated time")
    parser.add_argument("--traces", action="store_true",
                        help="run with the compiled-trace TCPU engine")
    parser.add_argument("--compare-traces", action="store_true",
                        help="run interpreter AND compiled traces, assert "
                             "identical totals, report speedup, write the "
                             "JSON artifact")
    parser.add_argument("--output", default="BENCH_tcpu_trace.json",
                        help="artifact path for --compare-traces "
                             "(default: BENCH_tcpu_trace.json)")
    parser.add_argument("--artifact", default="BENCH_event_throughput.json",
                        help="artifact path for the plain measurement "
                             "(default: BENCH_event_throughput.json; "
                             "'-' skips writing)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="repetitions (best wall-clock rate is reported)")
    parser.add_argument("--profile", action="store_true",
                        help="run once under telemetry: write a Perfetto "
                             "trace and print top-5 span self-times")
    parser.add_argument("--trace-output", default="trace_event_throughput.json",
                        help="Perfetto trace path for --profile "
                             "(default: trace_event_throughput.json)")
    args = parser.parse_args()

    duration = 2e-3 if args.quick else args.duration

    if args.profile:
        profile(duration, args.traces, args.trace_output)
        return

    if args.compare_traces:
        compare_traces(duration, args.repeat, args.output)
        return

    best = run_best(duration, args.repeat, compile_traces=args.traces)
    print_result(best)

    # Determinism guard: the simulated side of the workload must not depend
    # on wall-clock or the TCPU engine.  The check run flips the engine and
    # must land on exactly the same totals.
    check = run_once(duration, compile_traces=not args.traces)
    assert check["events"] == best["events"], "event count must be deterministic"
    assert check["tpp_hops"] == best["tpp_hops"], "TPP hops must be deterministic"

    # Track the headline number like the other artifacts: the plain
    # measurement is the repo's events/sec trajectory across PRs.
    if args.artifact != "-":
        artifact = {
            "benchmark": "bench_event_throughput",
            "workload": {
                "topology": "fat-tree k=4 (20 switches, 16 hosts)",
                "tpp": TPP_SOURCE.replace("\n", "; "),
                "duration_s": duration,
                "burst_packets": BURST_PACKETS,
                "burst_interval_s": BURST_INTERVAL_S,
                "payload_bytes": PAYLOAD_BYTES,
                "compile_traces": args.traces,
                "repeat": args.repeat,
            },
            "result": best,
            "determinism_check_identical": True,
        }
        _provenance.write_artifact(artifact, args.artifact)
        print(f"  artifact written    : {args.artifact}")


if __name__ == "__main__":
    main()
