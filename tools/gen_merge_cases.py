#!/usr/bin/env python3
"""Generate and machine-check merge-algebra cases for every summary type.

Commuter-style checker for the collection plane's algebra: instead of
hand-writing one law test per summary type (and silently missing the next
type someone registers), this tool *enumerates* the registry
(:data:`repro.collect.SUMMARY_TYPES`), derives a generator for each type
from its constructor/field structure, and machine-checks the laws every
scale-out claim rests on:

* **commutativity** — ``merge(a, b) == merge(b, a)``;
* **associativity** — ``merge(merge(a, b), c) == merge(a, merge(b, c))``;
* **identity** — merging an empty summary of the same shape is a no-op;
* **sharded fold vs serial** — folding any partition of N instances,
  shard-by-shard then across shards, equals the serial left fold (the
  exact claim behind :meth:`repro.collect.CollectPlane.merge`);
* **delta round-trip** — along any growth chain a0 → a1 → … (cumulative
  snapshots, as aggregators produce), ``apply_delta(diff)`` reconstructs
  each successor byte-identically, both directly and through a
  :class:`~repro.collect.delta.DeltaChannel`/``DeltaDecoder`` pair.

Equality everywhere is canonical-JSON equality of
:func:`repro.collect.summary_jsonable` — the byte-identity the
differential tests use, not a loose numeric comparison.

``tests/test_merge_commuter.py`` drives the same generators under
hypothesis (random seeds and interleavings); the CLI here is the
standalone/CI face::

    python tools/gen_merge_cases.py --cases 25 --seed 1 [--json]

Exit status 0 when every registered type satisfies every law, 1 with one
``type: law: detail`` line per violation otherwise.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import Any, Callable, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.collect import (CounterSummary, DeltaChannel, DeltaDecoder,  # noqa: E402
                           HistogramSummary, SUMMARY_TYPES, SeriesSummary,
                           SummaryBundle, TopKSummary, summary_copy,
                           summary_jsonable)

#: The laws checked per registered type, in report order.
LAWS = ("commutativity", "associativity", "identity", "sharded-fold",
        "delta-roundtrip", "delta-channel")

#: Histogram edge menus the generator draws from (per-type field structure:
#: HistogramSummary instances only merge when their edges match, so every
#: instance in one case shares one menu entry).
_EDGE_MENUS = ([0.0, 1.0, 5.0], [0.0, 0.5, 1.0, 2.0, 4.0], [10.0, 20.0])

_WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta")


def canonical(summary: Any) -> str:
    """The byte-identity witness: canonical JSON of the jsonable form."""
    return json.dumps(summary_jsonable(summary), sort_keys=True)


# ---------------------------------------------------------------------------
# Per-type generation, derived from each type's constructor field structure
# ---------------------------------------------------------------------------
def _make_counter(rng: random.Random, params: dict) -> CounterSummary:
    summary = CounterSummary()
    for _ in range(rng.randrange(0, 6)):
        summary.add(rng.choice(_WORDS), rng.randrange(1, 50))
    return summary


def _make_histogram(rng: random.Random, params: dict) -> HistogramSummary:
    summary = HistogramSummary(params["edges"])
    for _ in range(rng.randrange(0, 8)):
        summary.observe(rng.uniform(-1.0, 25.0), rng.randrange(1, 4))
    return summary


def _make_topk(rng: random.Random, params: dict) -> TopKSummary:
    summary = TopKSummary(params["k"])
    for _ in range(rng.randrange(0, 8)):
        summary.observe(rng.choice(_WORDS), rng.randrange(1, 30))
    return summary


def _make_series(rng: random.Random, params: dict) -> SeriesSummary:
    summary = SeriesSummary()
    for _ in range(rng.randrange(0, 6)):
        summary.add(round(rng.uniform(0.0, 10.0), 4), rng.choice(_WORDS),
                    rng.randrange(0, 100))
    return summary


def _make_bundle(rng: random.Random, params: dict) -> SummaryBundle:
    parts: dict[str, Any] = {}
    for key in params["part_keys"]:
        kind = params["part_kinds"][key]
        parts[key] = _MAKERS[kind](rng, params)
    return SummaryBundle(parts)


_MAKERS: dict[str, Callable[[random.Random, dict], Any]] = {
    "CounterSummary": _make_counter,
    "HistogramSummary": _make_histogram,
    "TopKSummary": _make_topk,
    "SeriesSummary": _make_series,
    "SummaryBundle": _make_bundle,
}

#: Growth steps (in-place mutation through the public API) — used to build
#: the cumulative-snapshot chains the delta round-trip law runs along.
_GROWERS: dict[str, Callable[[Any, random.Random], None]] = {
    "CounterSummary": lambda s, rng: s.add(rng.choice(_WORDS),
                                           rng.randrange(1, 20)),
    "HistogramSummary": lambda s, rng: s.observe(rng.uniform(-1.0, 25.0)),
    "TopKSummary": lambda s, rng: s.observe(rng.choice(_WORDS),
                                            rng.randrange(1, 10)),
    "SeriesSummary": lambda s, rng: s.add(round(rng.uniform(0.0, 10.0), 4),
                                          rng.choice(_WORDS),
                                          rng.randrange(0, 100)),
}


def case_params(type_name: str, rng: random.Random) -> dict:
    """Shared shape parameters for one case (all instances must merge)."""
    params: dict[str, Any] = {
        "edges": rng.choice(_EDGE_MENUS),
        "k": rng.randrange(2, 6),
    }
    if type_name == "SummaryBundle":
        kinds = [k for k in _MAKERS if k != "SummaryBundle"]
        keys = rng.sample(_WORDS, rng.randrange(1, 4))
        params["part_keys"] = keys
        params["part_kinds"] = {key: rng.choice(kinds) for key in keys}
    return params


def make_summary(type_name: str, rng: random.Random,
                 params: Optional[dict] = None) -> Any:
    """One randomized instance of a registered summary type."""
    if type_name not in _MAKERS:
        raise KeyError(f"no generator for summary type {type_name!r}")
    if params is None:
        params = case_params(type_name, rng)
    return _MAKERS[type_name](rng, params)


def empty_like(summary: Any) -> Any:
    """The identity element matching ``summary``'s shape."""
    if isinstance(summary, CounterSummary):
        return CounterSummary()
    if isinstance(summary, HistogramSummary):
        return HistogramSummary(summary.edges)
    if isinstance(summary, TopKSummary):
        return TopKSummary(summary.k)
    if isinstance(summary, SeriesSummary):
        return SeriesSummary()
    if isinstance(summary, SummaryBundle):
        return SummaryBundle({key: empty_like(part)
                              for key, part in summary.items()})
    raise TypeError(f"no identity shape for {type(summary).__name__}")


def grow(summary: Any, rng: random.Random, steps: int = 3) -> None:
    """Mutate ``summary`` in place: the next cumulative snapshot state."""
    if isinstance(summary, SummaryBundle):
        for part in summary.parts.values():
            grow(part, rng, steps)
        return
    grower = _GROWERS[type(summary).__name__]
    for _ in range(rng.randrange(0, steps + 1)):
        grower(summary, rng)


def merged(*summaries: Any) -> Any:
    """Left fold of copies — never mutates the inputs."""
    result = summary_copy(summaries[0])
    for other in summaries[1:]:
        result.merge(summary_copy(other))
    return result


# ---------------------------------------------------------------------------
# The laws
# ---------------------------------------------------------------------------
def check_laws(type_name: str, seed: int) -> list[str]:
    """Check every law for one generated case; returns violation strings."""
    rng = random.Random(seed)
    params = case_params(type_name, rng)
    instances = [make_summary(type_name, rng, params) for _ in range(5)]
    violations: list[str] = []
    a, b, c = instances[:3]

    if canonical(merged(a, b)) != canonical(merged(b, a)):
        violations.append(f"{type_name}: commutativity: "
                          f"merge(a,b) != merge(b,a) at seed {seed}")
    if canonical(merged(merged(a, b), c)) != canonical(merged(a, merged(b, c))):
        violations.append(f"{type_name}: associativity: "
                          f"(a+b)+c != a+(b+c) at seed {seed}")
    empty = empty_like(a)
    if (canonical(merged(a, empty)) != canonical(a)
            or canonical(merged(empty, a)) != canonical(a)):
        violations.append(f"{type_name}: identity: "
                          f"empty is not a unit at seed {seed}")

    # Sharded fold vs serial: any partition, any shard order.
    serial = canonical(merged(*instances))
    shard_count = rng.randrange(2, 4)
    shards: list[list[Any]] = [[] for _ in range(shard_count)]
    for instance in instances:
        shards[rng.randrange(shard_count)].append(instance)
    partials = [merged(*shard) for shard in shards if shard]
    rng.shuffle(partials)
    if canonical(merged(*partials)) != serial:
        violations.append(f"{type_name}: sharded-fold: partition fold != "
                          f"serial fold at seed {seed}")

    # Delta round-trip along a growth chain of cumulative snapshots.
    state = make_summary(type_name, rng, params)
    channel = DeltaChannel()
    keyframe_every = rng.choice((0, 2))     # forced keyframes, as a NACK would
    decoder = DeltaDecoder()
    prev = summary_copy(state)
    for step in range(4):
        grow(state, rng)
        snapshot = summary_copy(state)
        differ = getattr(snapshot, "diff", None)
        if callable(differ):
            try:
                payload = differ(prev)
            except ValueError:
                pass                         # inexpressible: channel falls back
            else:
                replayed = summary_copy(prev)
                replayed.apply_delta(payload)
                if canonical(replayed) != canonical(snapshot):
                    violations.append(
                        f"{type_name}: delta-roundtrip: apply(diff) != "
                        f"target at seed {seed} step {step}")
        if keyframe_every and (channel.seq + 1) % keyframe_every == 0:
            channel.needs_full = True
        unit = channel.encode(state)
        decoded = decoder.decode(("case", type_name), unit)
        if decoded is None or canonical(decoded) != canonical(state):
            violations.append(f"{type_name}: delta-channel: decoded stream "
                              f"!= sender state at seed {seed} step {step}")
        prev = snapshot
    return violations


def run(cases: int, seed: int) -> dict:
    """Check every registered type over ``cases`` generated cases each."""
    report: dict[str, Any] = {"cases_per_type": cases, "base_seed": seed,
                              "types": {}, "violations": []}
    for type_name in sorted(SUMMARY_TYPES):
        failures: list[str] = []
        for case in range(cases):
            failures.extend(check_laws(type_name, seed + case))
        report["types"][type_name] = {
            "cases": cases, "laws": list(LAWS),
            "ok": not failures,
        }
        report["violations"].extend(failures)
    report["ok"] = not report["violations"]
    return report


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=25,
                        help="generated cases per registered type")
    parser.add_argument("--seed", type=int, default=1,
                        help="base seed for case generation")
    parser.add_argument("--json", action="store_true",
                        help="emit the full report as JSON on stdout")
    args = parser.parse_args(argv)
    report = run(args.cases, args.seed)
    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for type_name, entry in report["types"].items():
            status = "ok" if entry["ok"] else "FAIL"
            print(f"{type_name}: {entry['cases']} cases x "
                  f"{len(entry['laws'])} laws: {status}")
        for violation in report["violations"]:
            print(violation, file=sys.stderr)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
