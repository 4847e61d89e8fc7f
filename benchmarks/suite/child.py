"""One repetition of one workload, in a fresh process.

``run.py`` starts this file once per repetition with a JSON request on the
command line and reads one JSON report from the last line of stdout.  Modes:

* ``timed``  — build, then time ``experiment.run`` -> ``ResultSummary`` ->
  canonical JSON (time-to-result) with nothing installed;
* ``traced`` — the same with the suite's spans installed around the calls
  into each layer (pure observation: totals and digest must not move);
* ``check``  — the output checks that need their own run: a drained pass for
  packet conservation plus the per-workload oracles.

Nothing under ``repro`` is imported before the request is read, so the
parent's spawn timestamp to "build returned" covers interpreter start,
import and build: what every script and every sweep worker pays.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pickle
import resource
import sys
import time
from time import perf_counter


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _canonical(summary) -> str:
    return json.dumps(summary.as_jsonable(), sort_keys=True,
                      separators=(",", ":"))


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for descendant."""
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak_kb / 1024.0


# --------------------------------------------------------------------- counts
def experiment_counts(experiment, result) -> dict:
    """Per-layer work counts, read from the components' public counters."""
    from repro.net.port import DROP_QUEUE_OVERFLOW
    network = experiment.network
    hosts = list(network.hosts.values())
    switches = list(network.switches.values())
    tcpus = [switch.tcpu for switch in switches]
    shims = [stack.shim for stack in experiment.stacks.values()]
    port_drops = sum(result.drop_reasons.values())
    overflow = sum(port.drops_by_reason.get(DROP_QUEUE_OVERFLOW, 0)
                   for switch in switches for port in switch.ports)
    # Switch.packets_dropped counts pipeline drops plus its ports' overflows.
    pipeline_drops = sum(s.packets_dropped for s in switches) - overflow
    recorder = result.flightrec or {}
    return {
        "net.events": result.events_executed,
        "net.packets_sent": _packets_sent(experiment),
        "net.packets_delivered": sum(h.packets_received for h in hosts),
        "net.packets_dropped": port_drops + pipeline_drops,
        "switches.packets": sum(s.packets_forwarded for s in switches),
        "switches.drops": sum(s.packets_dropped for s in switches),
        "core.tpp_hops": sum(t.tpps_executed for t in tcpus),
        "core.instructions": sum(t.instructions_executed for t in tcpus),
        "core.plan_cache_hits": sum(t.plan_cache_hits for t in tcpus),
        "core.plan_cache_misses": sum(t.plan_cache_misses for t in tcpus),
        "core.trace_executions": sum(t.trace_executions for t in tcpus),
        "core.trace_fallbacks": sum(t.trace_fallbacks for t in tcpus),
        "endhost.tpps_attached": sum(s.tpps_attached for s in shims),
        "endhost.tpp_bytes_added": sum(s.tpp_bytes_added for s in shims),
        "endhost.tpps_completed": sum(s.tpps_completed for s in shims),
        "apps.on_tpp_calls": result.tpps_received,
        "collect.submissions": result.summaries_submitted,
        "collect.parts_delivered": result.summary_parts_delivered,
        "collect.parts_dropped": result.summary_parts_dropped,
        "collect.flushes": result.summary_flushes,
        "collect.bytes_on_wire": result.summary_bytes_on_wire,
        "collect.delta_applied": result.summary_delta_applied,
        "collect.delta_gaps": result.summary_delta_gaps,
        "obs.records_written": recorder.get("records_written", 0),
        "obs.records_overwritten": recorder.get("records_overwritten", 0),
    }


def _add_into(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def _packets_sent(experiment) -> int:
    return sum(h.packets_sent for h in experiment.network.hosts.values())


def _ops(counts: dict) -> tuple[int, int]:
    attempted = counts["net.packets_sent"] + counts["collect.submissions"]
    failed = counts["net.packets_dropped"] + counts["collect.parts_dropped"]
    return attempted, failed


# ------------------------------------------------------------------- oracles
def conservation_violations(experiment, result) -> list[str]:
    """After a drained run every sent packet is delivered or dropped."""
    counts = experiment_counts(experiment, result)
    sent = counts["net.packets_sent"]
    accounted = counts["net.packets_delivered"] + counts["net.packets_dropped"]
    if sent != accounted:
        return [f"packet conservation: sent {sent} != delivered+dropped "
                f"{accounted}"]
    return []


class PushedWordsOracle:
    """Every delivered probe_read TPP carries (switch id, occupancy) for
    exactly the switches on a shortest path the topology computes, and the
    switch ids it pushed name the switches it actually crossed."""

    def __init__(self) -> None:
        self.network = None
        self.checked = 0
        self.violations: list[str] = []
        self._hops: dict[tuple[str, str], int] = {}

    def bind(self, experiment) -> None:
        self.network = experiment.network

    def on_tpp(self, tpp, packet) -> None:
        self.checked += 1
        pair = (packet.src, packet.dst)
        if pair not in self._hops:
            self._hops[pair] = len(self.network.compute_path(*pair)) - 2
        words = tpp.pushed_words()
        crossed = [self.network.switches[name].switch_id
                   for name in packet.path[1:-1]]
        if len(words) != 2 * self._hops[pair] or words[0::2] != crossed:
            if len(self.violations) < 5:
                self.violations.append(
                    f"packet {packet.packet_id} {pair}: pushed {words}, "
                    f"crossed switches {crossed}")
            else:
                self.violations.append("...")


def merged_view_violations(result) -> list[str]:
    """The collector tier's merged view equals a serial fold of the per-host
    ``summarize()`` snapshots (sorted host order, plain monoid merge)."""
    from repro.collect import merge_summaries, summary_jsonable
    summaries = result.summaries("monitor")
    folded = functools.reduce(merge_summaries,
                              (summaries[host] for host in sorted(summaries)))
    if summary_jsonable(folded) != summary_jsonable(result.merged_summary("monitor")):
        return [f"merged view differs from the serial fold of "
                f"{len(summaries)} per-host snapshots"]
    return []


# ---------------------------------------------------------------- repetitions
def run_experiment(workload, request: dict, tracer) -> dict:
    """``timed`` / ``traced`` repetition of a single-experiment workload."""
    from repro.session import ResultSummary

    def repetition() -> dict:
        experiment = workload.build(request["seed"]).build(workload.duration_s)
        built_at = time.time()
        start = perf_counter()
        result = experiment.run(workload.duration_s)
        summary = ResultSummary.from_result(result)
        canonical = _canonical(summary)
        wall_s = perf_counter() - start
        return {"experiment": experiment, "result": result,
                "summary": summary, "canonical": canonical, "wall_s": wall_s,
                "built_at": built_at}

    if tracer is not None:
        run, root_s = tracer.root(repetition)
    else:
        run, root_s = repetition(), None
    counts = experiment_counts(run["experiment"], run["result"])
    attempted, failed = _ops(counts)
    return {
        "wall_s": run["wall_s"], "built_at": run["built_at"], "root_s": root_s,
        "events": counts["net.events"], "experiments": 1,
        "digest": _digest(run["canonical"]),
        "counts": counts, "ops_attempted": attempted, "ops_failed": failed,
        "violations": [],
        "result_pickle_bytes": len(pickle.dumps(run["summary"])),
    }


def check_experiment(workload, request: dict) -> dict:
    """Drained conservation pass plus the workload's own oracle."""
    from workloads import WORKLOADS

    name = workload.name
    report = {}
    if name == "probe_recorded":
        # The recorder-off base at equal duration, before anything else has
        # warmed or bloated this process: digest oracle (f) and the base of
        # obs.overhead_frac.
        base = run_experiment(
            dataclasses.replace(WORKLOADS["probe_read"],
                                duration_s=workload.duration_s), request, None)
        report["base_digest"] = base["digest"]
        report["base_events_per_s"] = base["events"] / base["wall_s"]
    scenario = workload.build(request["seed"])
    oracle = None
    if name == "probe_read":
        oracle = PushedWordsOracle()
        scenario.collect(on_tpp=oracle.on_tpp).setup(oracle.bind)
    experiment = scenario.build(workload.duration_s)
    result = experiment.run(workload.duration_s, run_until_idle=True)
    violations = conservation_violations(experiment, result)
    if oracle is not None:
        violations += oracle.violations
        if oracle.checked != result.tpps_completed or not oracle.checked:
            violations.append(f"oracle saw {oracle.checked} TPPs, shims "
                              f"completed {result.tpps_completed}")
    if name == "monitor_collect":
        violations += merged_view_violations(result)
    report["violations"] = violations
    report["checked"] = {"packets": _packets_sent(experiment),
                         "tpps": oracle.checked if oracle else 0}
    return report


def _stash_worker_spans(tracer) -> None:
    """Ship each sweep task's spans and counts home on the result summary.

    Forked workers inherit the class-level wraps but accumulate into their
    own copy of the tracer.  ``ResultSummary.telemetry`` is the public
    observability side channel (never part of the canonical rendering), so
    the wrapped ``from_result`` drains the worker's accumulators into it.
    """
    from repro.session import ResultSummary
    spanned = ResultSummary.from_result.__func__

    def from_result(cls, result):
        summary = spanned(cls, result)
        payload = tracer.drain()
        payload["counts"] = experiment_counts(result.experiment, result)
        summary.telemetry = {"suite": payload}
        return summary

    ResultSummary.from_result = classmethod(from_result)


def run_sweep(workload, request: dict, tracer) -> dict:
    """``timed`` / ``traced`` repetition of the sweep workload."""
    from repro.sweep import SweepRunner
    from workloads import SWEEP_WORKERS

    def repetition() -> dict:
        tasks = workload.build(request["seed"]).expand()   # and fingerprints
        built_at = time.time()
        runner = SweepRunner(workers=SWEEP_WORKERS,
                             duration_s=workload.duration_s)
        start = perf_counter()
        result = runner.run(tasks)
        canonical = result.canonical_json()
        wall_s = perf_counter() - start
        return {"result": result, "canonical": canonical, "wall_s": wall_s,
                "built_at": built_at, "tasks": len(tasks)}

    if tracer is not None:
        _stash_worker_spans(tracer)
        run, root_s = tracer.root(repetition)
    else:
        run, root_s = repetition(), None
    result = run["result"]
    done = result.completed
    counts: dict = {}
    worker_self_s: dict = {}
    worker_calls: dict = {}
    for outcome in done:
        shipped = (outcome.summary.telemetry or {}).get("suite")
        if shipped is not None:
            _add_into(counts, shipped["counts"])
            _add_into(worker_self_s, shipped["self_s"])
            _add_into(worker_calls, shipped["calls"])
    events = sum(o.summary.counters["events_executed"] for o in done)
    counts["net.events"] = events
    task_wall = sum(o.wall_s for o in result.outcomes)
    counts.update({
        "sweep.tasks": len(result.outcomes),
        "sweep.tasks_failed": len(result.outcomes) - len(done),
        "sweep.retries": result.retries,
        "sweep.worker_crashes": result.worker_crashes,
    })
    sweep_failures = (counts["sweep.tasks_failed"] + result.retries
                      + result.worker_crashes)
    return {
        "wall_s": run["wall_s"], "built_at": run["built_at"], "root_s": root_s,
        "events": events, "experiments": len(done),
        "digest": _digest(run["canonical"]),
        "counts": counts, "ops_attempted": run["tasks"],
        "ops_failed": sweep_failures, "violations": [],
        "result_pickle_bytes": sum(len(pickle.dumps(o.summary)) for o in done),
        "sweep_run_wall_s": result.wall_s, "sweep_task_wall_sum_s": task_wall,
        "worker_self_s": worker_self_s, "worker_calls": worker_calls,
    }


def check_sweep(workload, request: dict) -> dict:
    """Packet conservation on the sweep's first spec, drained, in-process."""
    task = workload.build(request["seed"]).expand()[0]
    experiment = task.spec.to_scenario().build(workload.duration_s)
    result = experiment.run(workload.duration_s, run_until_idle=True)
    return {"violations": conservation_violations(experiment, result),
            "checked": {"packets": _packets_sent(experiment), "tpps": 0}}


def main() -> None:
    request = json.loads(sys.argv[1])
    start = perf_counter()
    from workloads import WORKLOADS      # first import of repro
    import_s = perf_counter() - start
    workload = WORKLOADS[request["workload"]]
    is_sweep = workload.name == "sweep_seeds"
    mode = request["mode"]

    if mode == "check":
        report = (check_sweep if is_sweep else check_experiment)(workload, request)
    else:
        tracer = None
        if mode == "traced":
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            report = (run_sweep if is_sweep else run_experiment)(
                workload, request, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        report["setup_s"] = report.pop("built_at") - request["spawned_at"]
        report["import_s"] = import_s
        if tracer is not None:
            report["self_s"] = tracer.self_s
            report["calls"] = tracer.calls
            if "trace_path" in request:
                tracer.write_chrome_trace(request["trace_path"],
                                          f"suite:{workload.name}")
    report["peak_rss_mb"] = _peak_rss_mb()
    report["duration_s"] = workload.duration_s
    print(json.dumps(report))


if __name__ == "__main__":
    main()
