"""Mergeable summaries: the monoids the collection plane ships around (§4.5).

The paper's deployment model works *because* the per-host aggregation
operators commute: "the aggregation operator is commutative and
associative, so the collector tier can be sharded freely".  This module
makes that property a first-class protocol instead of a comment.  A
:class:`MergeableSummary` is a commutative monoid element:

* ``merge(other)`` folds another summary of the same shape into this one,
* ``copy()`` produces an independent clone (so folding never mutates the
  submitted original), and
* ``as_dict()`` renders a canonical, JSON-able view (sorted keys, stable
  ordering) used by benchmarks and tests to compare merged results
  byte-for-byte across shard counts.

Concrete monoids:

* :class:`CounterSummary` — named counters; merge adds.
* :class:`HistogramSummary` — fixed-edge value histogram; merge adds bins.
* :class:`TopKSummary` — exact per-key counts with a top-k *view*; merge
  adds counts (k bounds the report, not the state, so merging stays a true
  monoid — a capped space-saving sketch would be order-dependent).
* :class:`SeriesSummary` — a multiset of ``(time, key, value)`` samples,
  canonically ordered *on read* (``add`` is an O(1) append); merge is
  multiset union and ``diff`` against a prefix snapshot is the tail.
* :class:`SummaryBundle` — a keyed product of the above (and of any foreign
  object with a commutative ``merge``, e.g.
  :class:`repro.apps.sketches.BitmapSketch`); merge is key-wise.

Anything with a commutative ``merge(other)`` participates; :func:`fold`
(copy the first, merge the rest) is the one combine step every tier uses,
and :func:`summary_copy` adapts foreign objects by deep-copying when they
lack ``copy()``.

A caveat on *bit*-identity: the monoid laws hold exactly over integers
(which is what every shipped aggregator emits — packet, sample, and
truncation counts).  Float-valued counters/histogram totals are still
commutative monoids mathematically, but IEEE-754 addition is not
associative, so different shard partitions may disagree in the last ulp.
If you need canonical merged views over float summaries, quantise on
observation (e.g. round to a fixed decimal) or carry the addends in a
:class:`SeriesSummary` and reduce at the end.

Delta encoding (:mod:`repro.collect.delta`) adds a second pair of verbs to
every registered monoid: ``current.diff(prev)`` renders the change between
two snapshots of the same source as a compact payload, and
``state.apply_delta(payload)`` replays it.  Diffs carry *absolute* new
values for the entries that changed (never arithmetic differences), so
``apply(diff(a, b)) == b`` holds exactly — floats included — and a delta
stream reconstructs the cumulative snapshot byte-identically.  A type that
cannot express a particular transition (e.g. a series that lost samples)
raises ``ValueError`` from ``diff`` and the channel falls back to a full
cumulative re-send.

Every concrete monoid registers itself in :data:`SUMMARY_TYPES` via
:func:`register_summary`; the Commuter-style generated test suite
(``tools/gen_merge_cases.py`` + ``tests/test_merge_commuter.py``)
enumerates this registry and machine-checks the algebra for every member.
"""

from __future__ import annotations

import copy as _copy
from bisect import bisect_left
from collections import Counter as _Counter
from fractions import Fraction
from typing import Any, Iterable, Iterator, Optional, Protocol, runtime_checkable

#: Registry of concrete mergeable-summary types, by class name.  The
#: generated commutativity suite enumerates this to prove the algebra for
#: every type the collect plane can ship — adding a type here opts it into
#: the machine-checked monoid/delta laws.
SUMMARY_TYPES: dict[str, type] = {}


def register_summary(cls: type) -> type:
    """Class decorator: record a concrete summary type in the registry."""
    SUMMARY_TYPES[cls.__name__] = cls
    return cls


@runtime_checkable
class MergeableSummary(Protocol):
    """Structural protocol for commutative, shardable summaries."""

    def merge(self, other: Any) -> None:
        """Fold ``other`` (same shape) into this summary, in place."""
        ...

    def copy(self) -> "MergeableSummary":
        """An independent clone; merging into the clone leaves self alone."""
        ...

    def as_dict(self) -> dict:
        """A canonical JSON-able rendering (sorted keys, stable order)."""
        ...


def summary_copy(summary: Any) -> Any:
    """Clone a summary: its own ``copy()`` when it has one, deepcopy otherwise.

    The deepcopy fallback adapts foreign mergeables that expose ``merge``
    but no explicit clone.
    """
    copier = getattr(summary, "copy", None)
    if callable(copier):
        return copier()
    return _copy.deepcopy(summary)


def fold(summaries: Iterable[Any]) -> Any:
    """``s0 ⊕ s1 ⊕ …`` as a fresh object: copy the first summary, merge the
    rest into the copy in the caller's order.  No input is mutated.

    The one combine step of the collect plane: a shard's per-target view,
    every level of the aggregation tree, a result's per-app summary and a
    sweep's merged bundle all fold through here.
    """
    items = iter(summaries)
    try:
        merged = summary_copy(next(items))
    except StopIteration:
        raise ValueError("cannot fold zero summaries") from None
    for summary in items:
        merged.merge(summary)
    return merged


def merge_summaries(left: Any, right: Any) -> Any:
    """``left ⊕ right`` as a fresh object; neither argument is mutated."""
    return fold((left, right))


def summary_jsonable(summary: Any) -> Any:
    """A deterministic JSON-able view of any summary (canonical for ours)."""
    renderer = getattr(summary, "as_dict", None)
    if callable(renderer):
        return renderer()
    return {"type": type(summary).__name__, "repr": repr(summary)}


def _canonical_key(key: Any) -> str:
    """A total order over arbitrary hashable keys (str for str, repr else)."""
    return key if isinstance(key, str) else repr(key)


def _exact(value: float) -> int | Fraction:
    """``value`` as an exact addend: ints stay ints, the rest go rational."""
    return value if isinstance(value, int) else Fraction(value)


@register_summary
class CounterSummary:
    """Named counters; ``merge`` adds count-wise.  Mapping-like for reads."""

    __slots__ = ("counts",)

    def __init__(self, counts: Optional[dict[str, float]] = None) -> None:
        self.counts: dict[str, float] = dict(counts) if counts else {}

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def merge(self, other: "CounterSummary") -> None:
        mine = self.counts
        for name, amount in other.counts.items():
            mine[name] = mine.get(name, 0) + amount

    def copy(self) -> "CounterSummary":
        return CounterSummary(self.counts)

    def diff(self, prev: "CounterSummary") -> dict:
        """The change from ``prev`` to this snapshot, as absolute values."""
        if not isinstance(prev, CounterSummary):
            raise ValueError("counter diffs need a CounterSummary base")
        changed = {name: value for name, value in self.counts.items()
                   if prev.counts.get(name) != value}
        removed = [name for name in prev.counts if name not in self.counts]
        return {"op": "counter", "set": changed, "drop": removed}

    def apply_delta(self, payload: dict) -> None:
        self.counts.update(payload["set"])
        for name in payload["drop"]:
            self.counts.pop(name, None)

    def as_dict(self) -> dict:
        return {"type": "counter",
                "counts": {name: self.counts[name] for name in sorted(self.counts)}}

    # Mapping-style reads so legacy code (and tests) can index summaries.
    def __getitem__(self, name: str) -> float:
        return self.counts[name]

    def get(self, name: str, default: float = 0) -> float:
        return self.counts.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self.counts

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CounterSummary) and self.counts == other.counts

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={self.counts[name]:g}" for name in sorted(self.counts))
        return f"CounterSummary({inner})"


@register_summary
class HistogramSummary:
    """A fixed-edge histogram; ``merge`` adds per-bin counts.

    ``edges`` are the (sorted) upper-inclusive boundaries: a value lands in
    the first bin whose edge is >= value, or the overflow bin past the last
    edge.  Two histograms merge only when their edges are identical.

    The value total is accumulated exactly, never as a float: an ``int``
    while every observed value is an int (all the shipped aggregators), a
    :class:`fractions.Fraction` (which represents every float exactly) from
    the first non-int on.  Float addition is not associative, so a float
    accumulator would make merge results depend on fold shape — flat vs
    tree merges could differ in the last ulp, breaking the byte-identity
    invariant.  The generated commutativity suite
    (``tools/gen_merge_cases.py``) caught exactly that.  ``total`` reads
    back as the nearest float.
    """

    __slots__ = ("edges", "bins", "count", "_total")

    def __init__(self, edges: Iterable[float],
                 bins: Optional[list[int]] = None,
                 count: int = 0, total: float = 0) -> None:
        self.edges: tuple[float, ...] = tuple(edges)
        if not self.edges or list(self.edges) != sorted(self.edges):
            raise ValueError("histogram edges must be non-empty and sorted")
        self.bins: list[int] = list(bins) if bins is not None \
            else [0] * (len(self.edges) + 1)
        if len(self.bins) != len(self.edges) + 1:
            raise ValueError("histogram needs len(edges)+1 bins (one overflow)")
        self.count = count
        self._total = _exact(total)

    @property
    def total(self) -> float:
        return float(self._total)

    def observe(self, value: float, n: int = 1) -> None:
        self.bins[bisect_left(self.edges, value)] += n
        self.count += n
        self._total += _exact(value) * n

    def merge(self, other: "HistogramSummary") -> None:
        if other.edges != self.edges:
            raise ValueError("can only merge histograms with identical edges")
        for index, n in enumerate(other.bins):
            self.bins[index] += n
        self.count += other.count
        self._total += other._total

    def copy(self) -> "HistogramSummary":
        clone = HistogramSummary(self.edges, bins=self.bins, count=self.count)
        clone._total = self._total
        return clone

    def diff(self, prev: "HistogramSummary") -> dict:
        """Changed bins (by index, absolute value) plus count/total."""
        if not isinstance(prev, HistogramSummary) or prev.edges != self.edges:
            raise ValueError("histogram diffs need an identical-edge base")
        changed = {index: n for index, n in enumerate(self.bins)
                   if prev.bins[index] != n}
        return {"op": "histogram", "bins": changed,
                "count": self.count, "total": self._total}

    def apply_delta(self, payload: dict) -> None:
        for index, n in payload["bins"].items():
            self.bins[index] = n
        self.count = payload["count"]
        self._total = _exact(payload["total"])

    def mean(self) -> float:
        return float(self._total / self.count) if self.count else 0.0

    def as_dict(self) -> dict:
        return {"type": "histogram", "edges": list(self.edges),
                "bins": list(self.bins), "count": self.count, "total": self.total}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HistogramSummary) and self.edges == other.edges
                and self.bins == other.bins and self.count == other.count
                and self._total == other._total)

    def __repr__(self) -> str:
        return f"HistogramSummary(edges={self.edges}, count={self.count})"


@register_summary
class TopKSummary:
    """Exact per-key counts with a bounded top-k *report*.

    The state is the full (exact) count map, so ``merge`` is plain addition
    and the monoid laws hold; ``k`` only bounds what :meth:`top` renders.
    (A capacity-capped heavy-hitter sketch would make merged results depend
    on arrival order — exactly what the collection plane must avoid.)
    """

    __slots__ = ("k", "counts")

    def __init__(self, k: int = 10, counts: Optional[dict[Any, int]] = None) -> None:
        if k < 1:
            raise ValueError("top-k needs k >= 1")
        self.k = k
        self.counts: dict[Any, int] = dict(counts) if counts else {}

    def observe(self, key: Any, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def merge(self, other: "TopKSummary") -> None:
        mine = self.counts
        for key, n in other.counts.items():
            mine[key] = mine.get(key, 0) + n
        self.k = max(self.k, other.k)

    def copy(self) -> "TopKSummary":
        return TopKSummary(self.k, self.counts)

    def diff(self, prev: "TopKSummary") -> dict:
        """Changed keys (absolute new counts) plus the report bound."""
        if not isinstance(prev, TopKSummary):
            raise ValueError("top-k diffs need a TopKSummary base")
        changed = {key: n for key, n in self.counts.items()
                   if prev.counts.get(key) != n}
        removed = [key for key in prev.counts if key not in self.counts]
        return {"op": "top-k", "set": changed, "drop": removed, "k": self.k}

    def apply_delta(self, payload: dict) -> None:
        self.counts.update(payload["set"])
        for key in payload["drop"]:
            self.counts.pop(key, None)
        self.k = payload["k"]

    def top(self, k: Optional[int] = None) -> list[tuple[Any, int]]:
        """The k heaviest keys, count-descending, key-ascending on ties."""
        ordered = sorted(self.counts.items(),
                         key=lambda item: (-item[1], _canonical_key(item[0])))
        return ordered[:k if k is not None else self.k]

    def as_dict(self) -> dict:
        return {"type": "top-k", "k": self.k,
                "top": [[_canonical_key(key), n] for key, n in self.top()],
                "distinct_keys": len(self.counts)}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TopKSummary) and self.k == other.k
                and self.counts == other.counts)

    def __repr__(self) -> str:
        return f"TopKSummary(k={self.k}, distinct={len(self.counts)})"


@register_summary
class SeriesSummary:
    """A multiset of ``(time, key, value)`` samples, canonical on read.

    ``add``, ``merge`` and ``apply_delta`` only append; canonical
    ``(time, key, value)`` order is restored when :attr:`samples` is read,
    by sorting the not-yet-canonical tail (and the whole list only when
    that tail interleaves with the canonical prefix).  Observation cost is
    therefore per sample, not per sample x run length, while any merge
    order (and any sharding of the sources) still reads back as the
    identical sample sequence.
    """

    __slots__ = ("_samples", "_canonical")

    def __init__(self, samples: Optional[Iterable[tuple]] = None) -> None:
        self._samples: list[tuple] = list(samples) if samples else []
        self._canonical = 0             # leading samples known to be in order

    @staticmethod
    def _sort_key(sample: tuple) -> tuple:
        time, key, value = sample
        return (time, _canonical_key(key), value)

    @property
    def samples(self) -> list[tuple]:
        """The samples as a plain list in canonical order.

        A read keys each sample it sorts once: the unsorted tail, or the
        whole list when that tail interleaves the canonical prefix.
        """
        items, done, key = self._samples, self._canonical, self._sort_key
        if done < len(items):
            keys = list(map(key, items[done:]))
            if done:
                last = key(items[done - 1])
                if last > min(keys):    # the tail interleaves the prefix
                    keys[:0] = [*map(key, items[:done - 1]), last]
                    done = 0
            order = sorted(range(len(keys)), key=keys.__getitem__)  # stable
            items[done:] = [items[done + i] for i in order]
            self._canonical = len(items)
        return items

    @samples.setter
    def samples(self, samples: Iterable[tuple]) -> None:
        self._samples = list(samples)
        self._canonical = 0

    def add(self, time: float, key: Any, value: float) -> None:
        self._samples.append((time, key, value))

    def merge(self, other: "SeriesSummary") -> None:
        self._samples.extend(other._samples)

    def copy(self) -> "SeriesSummary":
        clone = SeriesSummary(self.samples)
        clone._canonical = len(clone._samples)
        return clone

    def diff(self, prev: "SeriesSummary") -> dict:
        """The samples appended since ``prev`` (a multiset difference).

        When ``prev`` is a prefix of this snapshot — the steady state of an
        observing aggregator — the difference is the tail, found by one
        list comparison.  Otherwise the exact multiset path runs: series
        only ever grow under observation and merge, so a base that is
        *not* a multiset subset of this snapshot cannot be expressed as an
        append-only delta and raises ``ValueError`` (the channel then falls
        back to a cumulative re-send).
        """
        if not isinstance(prev, SeriesSummary):
            raise ValueError("series diffs need a SeriesSummary base")
        mine, base = self.samples, prev.samples
        if mine[:len(base)] == base:
            return {"op": "series", "add": mine[len(base):]}
        added = _Counter(mine)
        added.subtract(base)
        if any(n < 0 for n in added.values()):
            raise ValueError("series base is not a subset; cumulative resend "
                             "required")
        samples = [sample for sample, n in added.items() for _ in range(n)]
        samples.sort(key=self._sort_key)
        return {"op": "series", "add": samples}

    def apply_delta(self, payload: dict) -> None:
        self._samples.extend(payload["add"])

    def series(self, key: Any) -> list[tuple[float, float]]:
        """The (time, value) points recorded for one key, in time order."""
        return [(t, v) for t, k, v in self.samples if k == key]

    def keys(self) -> list[Any]:
        seen = {k: None for _, k, _ in self.samples}        # ordered de-dup
        return sorted(seen, key=_canonical_key)

    def __len__(self) -> int:
        return len(self._samples)

    def as_dict(self) -> dict:
        return {"type": "series",
                # Each row is its sample's sort key, so sorting the rows is
                # sorting the samples, and each sample is keyed once.
                "samples": sorted([[t, _canonical_key(k), v]
                                   for t, k, v in self._samples])}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SeriesSummary) and self.samples == other.samples

    def __repr__(self) -> str:
        return f"SeriesSummary({len(self.samples)} samples, {len(self.keys())} keys)"


@register_summary
class SummaryBundle:
    """A keyed product of mergeable parts; ``merge`` is key-wise.

    Parts may be any of the monoids above or any foreign object with a
    commutative ``merge`` (bitmap sketches OR-merge, for instance).  Keys
    absent on one side are cloned from the other, so the empty bundle is
    the identity element.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Optional[dict[Any, Any]] = None) -> None:
        self.parts: dict[Any, Any] = dict(parts) if parts else {}

    def merge(self, other: "SummaryBundle") -> None:
        mine = self.parts
        for key, part in other.parts.items():
            if key in mine:
                mine[key].merge(part)
            else:
                mine[key] = summary_copy(part)

    def copy(self) -> "SummaryBundle":
        return SummaryBundle({key: summary_copy(part)
                              for key, part in self.parts.items()})

    def diff(self, prev: "SummaryBundle") -> dict:
        """Key-wise delta: unchanged parts vanish, changed parts diff
        recursively, parts without a usable ``diff`` ship as full copies."""
        if not isinstance(prev, SummaryBundle):
            raise ValueError("bundle diffs need a SummaryBundle base")
        set_parts: dict[Any, Any] = {}
        delta_parts: dict[Any, Any] = {}
        for key, part in self.parts.items():
            prev_part = prev.parts.get(key)
            if prev_part is not None and type(prev_part) is type(part):
                try:
                    if prev_part == part:
                        continue
                except Exception:
                    pass                      # no usable equality: ship full
                differ = getattr(part, "diff", None)
                if callable(differ):
                    try:
                        delta_parts[key] = differ(prev_part)
                        continue
                    except ValueError:
                        pass                  # inexpressible: ship full
            set_parts[key] = summary_copy(part)
        removed = [key for key in prev.parts if key not in self.parts]
        return {"op": "bundle", "set": set_parts, "delta": delta_parts,
                "drop": removed}

    def apply_delta(self, payload: dict) -> None:
        for key, part in payload["set"].items():
            self.parts[key] = summary_copy(part)
        for key, sub in payload["delta"].items():
            self.parts[key].apply_delta(sub)
        for key in payload["drop"]:
            self.parts.pop(key, None)

    def items(self) -> Iterator[tuple[Any, Any]]:
        return iter(self.parts.items())

    def keys(self):
        return self.parts.keys()

    def __getitem__(self, key: Any) -> Any:
        return self.parts[key]

    def get(self, key: Any, default: Any = None) -> Any:
        return self.parts.get(key, default)

    def __contains__(self, key: Any) -> bool:
        return key in self.parts

    def as_dict(self) -> dict:
        return {"type": "bundle",
                "parts": {_canonical_key(key): summary_jsonable(self.parts[key])
                          for key in sorted(self.parts, key=_canonical_key)}}

    def __repr__(self) -> str:
        return f"SummaryBundle({sorted(map(_canonical_key, self.parts))})"
