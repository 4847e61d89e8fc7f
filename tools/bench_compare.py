#!/usr/bin/env python3
"""Compare the working tree with a parent commit on the repo's benchmark.

Copies both sides into sibling temporary directories — ``<parent-ref>`` by
``git archive`` (no worktree is registered), the working tree's tracked and
unignored files as they are now — because ``peak_rss_mb`` moves by 1% with
the length of the checkout path alone.  Then runs the ``BENCHMARK.json``
command in the driver's form (one workload, one untraced pass, one JSON
object on the last line of stdout) on the two as alternating pairs, and
prints per workload x end-to-end metric: each side's median and quartiles,
the move of the median against the parent's own spread (the distance
between its quartiles), the pairs the change won, and a verdict:

* ``better`` / ``worse`` — one side won at least nine tenths of the pairs
  (ties count for neither) and the medians differ by more than the parent's
  spread; ``worse`` also when the change's median is past the metric's
  ``bound``, and it says which (a resolved loss inside the bound is not a
  regression by the benchmark's rule);
* ``unresolved`` — anything else: the difference is inside the noise.

Every run compiles the sources afresh (``PYTHONDONTWRITEBYTECODE=1``):
otherwise the first run in each new tree pays for writing ``__pycache__``
and later runs do not, a one-off import cost that lands on pair 1's
``setup_s`` and widens the spread a claim is judged against.

A speedup counts only if the simulation did the same work, so after every
run it also reads that tree's ``benchmarks/suite/out/result.json`` and
prints each side's event total and canonical-result digest per workload.

Exit status 1 if any run reported failed operations or the two sides'
event totals or digests differ, else 0.

Usage::

    python tools/bench_compare.py HEAD~1 --workload monitor_collect --pairs 10
    python tools/bench_compare.py HEAD --workload forward_bare --pairs 1 --reps 2
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RESULT = Path("benchmarks", "suite", "out", "result.json")
#: The children's environment: no bytecode cache, so every run imports alike.
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")


def run_once(tree: Path, workload: str, seed: int,
             length: list[str]) -> tuple[dict, tuple[int, str]]:
    """One run of the benchmark command in ``tree``: the contract object it
    printed and the ``(events, digest)`` of the record it wrote."""
    done = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         *length, "--trace", "0"], cwd=tree, env=ENV, capture_output=True,
        text=True)
    if not done.stdout.strip():
        raise SystemExit(f"{workload} in {tree} printed nothing "
                         f"(exit {done.returncode}):\n{done.stderr}")
    written = json.loads((tree / RESULT).read_text(encoding="utf-8"))
    (record,) = written["records"]
    return (json.loads(done.stdout.strip().splitlines()[-1]),
            (record["events"], record["digest"]))


def quartiles(values: list[float]) -> list[float]:
    """(q1, median, q3); a single run stands for all three."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    """One printed row: both sides, pairs won, move vs spread, verdict."""
    sign = 1 if metric["better"] == "higher" else -1
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gain = sign * (cm - pm)                 # > 0: the change reads better
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    clear = len(parent) > 1 and abs(gain) > p3 - p1    # one pair has no spread
    if clear and gain > 0 and won >= 0.9 * len(parent):
        word = "better"
    elif -gain > metric["bound"] * pm:
        word = f"worse (past the {metric['bound']:.0%} bound)"
    elif clear and gain < 0 and lost >= 0.9 * len(parent):
        word = f"worse (inside the {metric['bound']:.0%} bound)"
    else:
        word = "unresolved"
    iqr = f"{abs(cm - pm) / (p3 - p1):.1f}x IQR" if p3 > p1 else "IQR 0"
    return (f"{pm:>11.5g} [{p1:.5g}..{p3:.5g}]".ljust(38)
            + f"{cm:>11.5g} [{c1:.5g}..{c3:.5g}]".ljust(38)
            + f"{cm / pm - 1:>+8.1%} {iqr:>11} {won:>3}/{len(parent):<3} {word}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git ref of the parent commit")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="compare only this workload (repeatable)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating parent/change pairs per workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int,
                        help="quick look: this many repetitions per run "
                             "instead of the benchmark's run_seconds")
    args = parser.parse_args()
    length = ["--reps", str(args.reps)] if args.reps \
        else ["--seconds", str(SPEC["run_seconds"])]
    failed = differ = 0
    with tempfile.TemporaryDirectory(prefix="bench-compare-") as tmp:
        trees = {side: Path(tmp, side) for side in ("parent", "change")}
        trees["parent"].mkdir()
        archive = subprocess.run(["git", "archive", "--format=tar", args.parent],
                                 cwd=ROOT, check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", trees["parent"]],
                       input=archive.stdout, check=True)
        listed = subprocess.run(["git", "ls-files", "-coz", "--exclude-standard"],
                                cwd=ROOT, check=True, capture_output=True, text=True)
        for name in filter(None, listed.stdout.split("\0")):
            if (ROOT / name).is_file():     # tracked but deleted: leave out
                (trees["change"] / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, trees["change"] / name)
        print(f"{'workload':<16} {'metric':<18} {'parent median [q1..q3]':<38}"
              f"{'change median [q1..q3]':<38}{'change':>8} {'vs spread':>11} "
              f"{'won':>7} verdict   (seed {args.seed}, {' '.join(length)}, "
              f"PYTHONDONTWRITEBYTECODE=1)")
        for workload in args.workload or WORKLOADS:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            totals: dict[str, set] = {"parent": set(), "change": set()}
            for pair in range(args.pairs):
                for side in (("parent", "change"), ("change", "parent"))[pair % 2]:
                    result, total = run_once(trees[side], workload, args.seed, length)
                    failed += result["failed"]
                    runs[side].append(result["metrics"])
                    totals[side].add(total)
                print(f"# {workload} pair {pair + 1}: " + "  ".join(
                    f"{name} {runs['parent'][-1][name]['value']:.5g} -> "
                    f"{runs['change'][-1][name]['value']:.5g}"
                    for name in runs["parent"][-1]), file=sys.stderr)
            for metric in SPEC["end_to_end"]:
                sides = [[run[metric["name"]]["value"] for run in runs[side]]
                         for side in ("parent", "change")]
                print(f"{workload:<16} {metric['name']:<18} "
                      + verdict(metric, *sides))
            same = totals["parent"] == totals["change"] and len(totals["parent"]) == 1
            differ += not same
            print(f"{workload:<16} {'events, digest':<18} "
                  + "".join(", ".join(f"{events:,} {digest}" for events, digest
                                      in sorted(totals[side])).ljust(50)
                            for side in ("parent", "change"))
                  + ("identical" if same else "DIFFER"))
    if failed:
        print(f"{failed} failed operations reported", file=sys.stderr)
    if differ:
        print(f"{differ} workload(s) with differing event totals or digests",
              file=sys.stderr)
    return 1 if failed or differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
