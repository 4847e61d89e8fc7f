#!/usr/bin/env python3
"""The simulator's benchmark suite: six workloads, four end-to-end metrics,
span-attributed per-layer numbers.  See README.md in this directory.

Usage (from the repository root; ``src/`` is put on the children's path)::

    python3 benchmarks/suite/run.py                      # everything
    python3 benchmarks/suite/run.py --workload probe_read --seed 7 --reps 3
    python3 benchmarks/suite/run.py --agree              # the noise gate
    python3 benchmarks/suite/run.py --layers             # isolated kernels

    # the form the benchmark driver uses (one workload, one pass, one
    # result object on the last line of stdout):
    python3 benchmarks/suite/run.py --workload probe_read --seed 1 \\
        --seconds 10 --trace 0

All workloads are closed and single-generator: one experiment at a time,
each repetition in a fresh child process (``child.py``), sequentially.
This process never imports ``repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
OUT = SUITE / "out"

#: Fixed default seed, and the seed reserved for verifying claims on inputs
#: not used while a change was developed (never tune against it).
DEFAULT_SEED = 1
HOLDOUT_SEED = 20140817

MIN_REPS = 3
#: Untraced repetitions a traced pass runs first: the base of
#: trace.overhead_frac and the totals the traced repetitions must reproduce.
TRACE_BASE_REPS = 3
CHILD_TIMEOUT_S = 150

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


# ------------------------------------------------------------------- children
def spawn(script: str, request: dict) -> dict:
    """Run one child to completion and return its JSON report.

    The child gets its own process group so that a timeout can take its
    sweep workers down with it; nothing is left running either way.
    """
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(SUITE)]),
               # Pinned so string-hash layout is one source of noise less;
               # both sides of any comparison run under the same value.
               PYTHONHASHSEED="0")
    request = dict(request, spawned_at=time.time())
    child = subprocess.Popen(
        [sys.executable, str(SUITE / script), json.dumps(request)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"{script} {request} exceeded {CHILD_TIMEOUT_S} s")
    if child.returncode != 0:
        raise SystemExit(f"{script} {request} exited {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------- stats
def spread(values: list[float], value: float) -> dict:
    """The reported ``value`` of one metric with the median, quartiles and
    raw samples it was chosen from."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"value": value, "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values), "samples": values}


def best_of(metric: dict, values: list[float]) -> dict:
    """Report the best repetition.  Interference on a shared box only ever
    slows a repetition down, and it comes in bursts that outlast half a run:
    over windows of 12 repetitions the best one moved 3% between runs where
    the median moved 4-8% (README.md, "Which repetition is reported")."""
    pick = max if metric["better"] == "higher" else min
    return spread(values, pick(values))


# ------------------------------------------------------------ metric assembly
def end_to_end_samples(rep: dict) -> dict:
    return {"events_per_s": rep["events"] / rep["wall_s"],
            "experiments_per_s": rep["experiments"] / rep["wall_s"],
            "setup_s": rep["setup_s"],
            "peak_rss_mb": rep["peak_rss_mb"]}


def per_layer_values(rep: dict, untraced_wall_s: float) -> dict:
    """Every per-layer metric of one traced repetition.

    Times are span self times (this process plus, for the sweep, its
    workers); counts come from the components' public counters, or from
    span call counts where a component keeps no counter.
    """
    own = rep["self_s"]
    workers = rep.get("worker_self_s", {})
    calls = dict(rep["calls"])
    for name, count in rep.get("worker_calls", {}).items():
        calls[name] = calls.get(name, 0) + count

    def seconds(name: str) -> float:
        return own.get(name, 0.0) + workers.get(name, 0.0)

    def per(name: str, count: float) -> float:
        return seconds(name) * 1e9 / count if count else 0.0

    values = {name: 0 for name in PER_LAYER}
    values.update(rep["counts"])
    values.update({name: seconds(name) for name in PER_LAYER
                   if name.endswith("_s") and name in own | workers})
    values.update({
        "net.ns_per_event": per("net.self_s", values["net.events"]),
        "net.port_sends": calls.get("net.port_send_s", 0),
        "switches.ns_per_packet": per("switches.self_s",
                                      values["switches.packets"]),
        "core.ns_per_hop": per("core.tcpu_s", values["core.tpp_hops"]),
        "core.ns_per_instruction": per("core.tcpu_s",
                                       values["core.instructions"]),
        "endhost.ns_per_tpp_tx": per("endhost.tx_self_s",
                                     values["endhost.tpps_attached"]),
        "apps.summarize_calls": calls.get("apps.summarize_s", 0),
        "session.import_s": rep["import_s"],
        "session.result_pickle_bytes": rep["result_pickle_bytes"],
        "trace.root_s": rep["root_s"],
        # Spans nest, so own self times must add up to the root span.
        "trace.unattributed_frac":
            abs(sum(own.values()) - rep["root_s"]) / rep["root_s"],
        "trace.overhead_frac": rep["wall_s"] / untraced_wall_s - 1.0,
    })
    if "sweep_run_wall_s" in rep:
        run_wall, task_wall = rep["sweep_run_wall_s"], rep["sweep_task_wall_sum_s"]
        values.update({
            "sweep.task_wall_sum_s": task_wall,
            "sweep.overhead_s": run_wall - task_wall / 2,
            "sweep.parallel_efficiency": task_wall / (2 * run_wall),
        })
    return values


# ------------------------------------------------------------------ one pass
def repeat(request: dict, seconds: float, reps: int | None) -> list[dict]:
    """Sequential fresh-process repetitions: ``reps`` of them when given,
    else as many as start within ``seconds`` (at least MIN_REPS)."""
    started = time.monotonic()
    reports: list[dict] = []
    while (len(reports) < reps if reps is not None else
           len(reports) < MIN_REPS or time.monotonic() - started < seconds):
        reports.append(spawn("child.py", request))
        # Only a pass's first traced repetition writes the 7 MB trace file.
        request = {k: v for k, v in request.items() if k != "trace_path"}
    return reports


def measure(workload: str, seed: int, *, traced: bool,
            seconds: float, reps: int | None, pins: dict) -> dict:
    """One pass over one workload: repetitions, output checks, metrics."""
    request = {"workload": workload, "seed": seed}
    trace_path = str(OUT / f"trace_{workload}.json")
    timed = repeat(dict(request, mode="timed"), seconds,
                   TRACE_BASE_REPS if traced else reps)
    traces = repeat(dict(request, mode="traced", trace_path=trace_path),
                    seconds, reps) if traced else []
    check = spawn("child.py", dict(request, mode="check"))

    # (a) every repetition and the traced pass land on identical totals.
    first = timed[0]
    violations = check["violations"] + first["violations"]
    for index, rep in enumerate(timed[1:] + traces, start=1):
        moved = [name for name, count in first["counts"].items()
                 if rep["counts"].get(name) != count]
        if rep["digest"] != first["digest"] or moved:
            violations.append(f"repetition {index} diverged from repetition 0: "
                              f"digest {rep['digest']} vs {first['digest']}, "
                              f"counts moved: {moved}")
        violations += rep["violations"]
    # (f) recording is pure observation.
    if "base_digest" in check and check["base_digest"] != first["digest"]:
        violations.append(f"recorded digest {first['digest']} != unrecorded "
                          f"{check['base_digest']} at equal duration")

    samples = [end_to_end_samples(rep) for rep in timed]
    record = {
        "workload": workload, "seed": seed, "traced": traced,
        "simulated_duration_s": first["duration_s"],
        "events": first["events"], "digest": first["digest"],
        "pinned_match": pins.get(workload) == first["digest"]
        if workload in pins else None,
        "end_to_end": {name: best_of(metric, [s[name] for s in samples])
                       for name, metric in END_TO_END.items()},
    }
    if traced:
        wall = min(rep["wall_s"] for rep in timed)
        layers = [per_layer_values(rep, wall) for rep in traces]
        if "base_events_per_s" in check:
            base = check["base_events_per_s"]
            recorded = record["end_to_end"]["events_per_s"]["value"]
            for values in layers:
                values["obs.overhead_frac"] = 1.0 - recorded / base
            record["obs_overhead_base_events_per_s"] = base
        unattributed = max(v["trace.unattributed_frac"] for v in layers)
        if unattributed > 0.02:
            violations.append(f"span self times miss the root span by "
                              f"{unattributed:.1%}")
        # One repetition's layer times add up to its root span, so the
        # reported values all come from the same (fastest) repetition.
        fastest = min(layers, key=lambda v: v["trace.root_s"])
        record["per_layer"] = {name: spread([v[name] for v in layers],
                                            fastest[name])
                               for name in PER_LAYER}
        record["trace_file"] = trace_path
        record["trace_base_wall_s"] = wall
    record["violations"] = violations
    record["ops_attempted"] = sum(r["ops_attempted"] for r in timed + traces) \
        + sum(check["checked"].values())
    record["ops_failed"] = sum(r["ops_failed"] for r in timed + traces) \
        + len(violations)
    return record


# ------------------------------------------------------------------ printing
def print_record(record: dict) -> None:
    print(f"\n== {record['workload']}  seed={record['seed']}  "
          f"{record['simulated_duration_s'] * 1e3:g} ms simulated  "
          f"events={record['events']:,}  digest={record['digest']}  "
          f"pinned_match={record['pinned_match']}")
    print(f"   ops_attempted={record['ops_attempted']:,}  "
          f"ops_failed={record['ops_failed']}")
    for line in record["violations"]:
        print(f"   VIOLATION: {line}")
    key, metrics = ("per_layer", PER_LAYER) if record["traced"] \
        else ("end_to_end", END_TO_END)
    for name, metric in metrics.items():
        s = record[key][name]
        print(f"   {name:<32} {s['value']:>16.6g} {metric['unit']:<6} "
              f"[median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"n={s['n']}]")
    if record["traced"]:
        print(f"   (traced times include span overhead: trace.overhead_frac is "
              f"traced wall / untraced {record['trace_base_wall_s']:.3f} s - 1; "
              f"trace file {record['trace_file']})")
        if "obs_overhead_base_events_per_s" in record:
            print(f"   (obs.overhead_frac base: probe_read at equal duration, "
                  f"{record['obs_overhead_base_events_per_s']:,.0f} events/s)")


def contract_line(record: dict) -> str:
    """The driver's result object: last line of stdout."""
    block, spec = ("per_layer", PER_LAYER) if record["traced"] \
        else ("end_to_end", END_TO_END)
    return json.dumps({
        "correct": record["ops_failed"] == 0,
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": {name: {"value": record[block][name]["value"],
                           "unit": spec[name]["unit"]} for name in spec},
    })


# --------------------------------------------------------------- provenance
def provenance() -> dict:
    def git(*args: str) -> str | None:
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    if commit and git("status", "--porcelain"):
        commit += "-dirty"
    return {"git_commit": commit, "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_1min_at_start": os.getloadavg()[0],
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


# --------------------------------------------------------------------- modes
def run_set(names: list[str], seed: int, passes: list[bool],
            seconds: float, reps: int | None, pins: dict) -> list[dict]:
    records = []
    for name in names:
        for traced in passes:
            record = measure(name, seed, traced=traced, seconds=seconds,
                             reps=reps, pins=pins)
            print_record(record)
            records.append(record)
    return records


def agree(names: list[str], seed: int, seconds: float, reps: int | None,
          pins: dict) -> bool:
    """Two full sets of the same code, back to back, must agree within each
    end-to-end metric's bound and on every simulated total."""
    first, second = (run_set(names, seed, [False], seconds, reps, pins)
                     for _ in range(2))
    ok = True
    print(f"\n{'workload':<16} {'metric':<18} {'set 1 value [q1..q3]':<38} "
          f"{'set 2 value [q1..q3]':<38} {'gap':>9} {'bound':>6}")
    for a, b in zip(first, second):
        if (a["digest"], a["events"]) != (b["digest"], b["events"]):
            ok = False
            print(f"{a['workload']:<16} simulated totals differ between sets")
        ok = ok and a["ops_failed"] == 0 and b["ops_failed"] == 0
        for name, metric in END_TO_END.items():
            x, y = a["end_to_end"][name], b["end_to_end"][name]
            gap = abs(y["value"] - x["value"]) / x["value"]
            verdict = "" if gap <= metric["bound"] else "  DISAGREE"
            ok = ok and not verdict
            print(f"{a['workload']:<16} {name:<18} "
                  + "".join(f"{s['value']:<12.6g} [{s['q1']:.5g}..{s['q3']:.5g}]"
                            .ljust(39) for s in (x, y))
                  + f"{gap:>8.2%} {metric['bound']:>6.0%}{verdict}")
    print("\nagree:", "PASS" if ok else "FAIL",
          "(gap = |set 2 - set 1| / set 1)")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"drives every generated input (default "
                             f"{DEFAULT_SEED}; {HOLDOUT_SEED} is reserved for "
                             f"verifying claims)")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="start repetitions for this long per pass "
                             f"(default %(default)s, at least {MIN_REPS} "
                             "repetitions)")
    parser.add_argument("--reps", type=int,
                        help="exactly this many repetitions per pass instead "
                             "(a quick look; too few for a comparison)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="only the untraced (0) or the traced (1) pass; "
                             "default both")
    parser.add_argument("--agree", action="store_true",
                        help="noise gate: two sets must agree within bounds")
    parser.add_argument("--layers", action="store_true",
                        help="isolated layer kernels instead of workloads")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator source at {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stamp = provenance()
    print(f"suite @ {stamp['git_commit']}  python {stamp['python']}  "
          f"nproc {stamp['nproc']}  load {stamp['loadavg_1min_at_start']:.2f}")
    if args.layers:
        kernels = {name: dict(spread(k["samples"],
                                     statistics.median(k["samples"])),
                              unit=k["unit"])
                   for name, k in spawn("kernels.py", {}).items()}
        for name, s in kernels.items():
            print(f"   {name:<36} {s['value']:>14.6g} {s['unit']:<5} "
                  f"[q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}]")
        (OUT / "layers.json").write_text(json.dumps(
            {"provenance": stamp, "kernels": kernels}, indent=1) + "\n")
        return 0

    names = args.workload or WORKLOADS
    pins = json.loads((SUITE / "expected.json").read_text()) \
        .get(str(args.seed), {})
    if args.agree:
        return 0 if agree(names, args.seed, args.seconds, args.reps, pins) else 1

    passes = [False, True] if args.trace is None else [bool(args.trace)]
    records = run_set(names, args.seed, passes, args.seconds, args.reps, pins)
    (OUT / "result.json").write_text(json.dumps(
        {"provenance": stamp, "seed": args.seed, "records": records},
        indent=1) + "\n")
    print(f"\nresult file: {OUT / 'result.json'}")
    if len(records) == 1:
        print(contract_line(records[0]))
    return 0 if all(r["ops_failed"] == 0 for r in records) else 1


if __name__ == "__main__":
    raise SystemExit(main())
