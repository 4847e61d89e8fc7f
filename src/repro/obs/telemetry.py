"""The :class:`Telemetry` context: spans and a typed metrics registry.

The runtime's own observability plane — the same argument the paper makes
for dataplanes, applied to the simulator: visibility must be a first-class
primitive, and it must never perturb what it observes.  Two faces:

* **Spans** — wall-clock intervals around coarse phases
  (``experiment.build``, ``experiment.run``, ``engine.slice``,
  ``sweep.task``).  ``span(name)`` is a context manager for nested phases;
  ``interval(name)`` is the begin/finish form for work that overlaps (the
  sweep pool's in-flight tasks).  Finished spans record parent links, so
  exporters can compute self-times and Perfetto nesting.
* **Metrics** — a typed registry (:class:`Gauge` pull-read at snapshot
  time, :class:`Histogram` of observations).  Engine components do
  **not** call the registry on their hot paths; they keep their existing
  plain-int counters behind one ``counters()`` face each, and the session
  layer registers their fold as one gauge *source*, so observation is a
  read at snapshot time, never a write per event.

Two invariants carry the design (enforced by ``tests/test_obs.py``):

1. **No perturbation.**  Spans and metrics read wall-clock and existing
   counters only — never simulation state, never an RNG.  Event totals and
   canonical artifacts are byte-identical with telemetry off, on, or
   exporting.
2. **Zero overhead when off.**  A disabled telemetry's ``span()`` /
   ``interval()`` return one shared no-op object and record nothing; the
   hot path never takes a branch that exists only for telemetry.

The *ambient* telemetry (:func:`get_telemetry` / :func:`use`) defaults to
the disabled :data:`NULL_TELEMETRY`; experiments pick it up at build time
unless handed an explicit instance.
"""

from __future__ import annotations

import contextlib
import math
import time
from typing import Any, Callable, Iterator, Optional

from repro import check_count

__all__ = [
    "Gauge", "Histogram", "MetricsRegistry", "NULL_TELEMETRY",
    "Span", "Telemetry", "get_telemetry", "set_telemetry", "use",
]


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------
class Gauge:
    """A pull-based reading: ``fn()`` is called at snapshot time only."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], Any]) -> None:
        self.name = name
        self.fn = fn

    def read(self) -> Any:
        return self.fn()


class Histogram:
    """Wall-clock (or any float) observations: count/sum/min/max + log2 bins.

    Bins are keyed by the power-of-two exponent of the observation
    (``frexp``), so the snapshot stays small at any observation count.
    """

    __slots__ = ("name", "count", "total", "min", "max", "bins")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.bins: dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        exponent = 0 if value <= 0 else max(-64, min(64, math.frexp(value)[1]))
        self.bins[exponent] = self.bins.get(exponent, 0) + 1

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": (self.total / self.count) if self.count else None,
            "log2_bins": {str(exp): self.bins[exp] for exp in sorted(self.bins)},
        }


class MetricsRegistry:
    """Named, typed metrics.  Re-registering a name with a different type
    is an error; re-registering a gauge (or a gauge source) replaces its
    reader (components are rebuilt per experiment, the registry may
    outlive them)."""

    def __init__(self) -> None:
        self._gauges: dict[str, Gauge] = {}
        self._sources: dict[str, Callable[[], dict[str, Any]]] = {}
        self._histograms: dict[str, Histogram] = {}

    def gauge(self, name: str, fn: Callable[[], Any]) -> Gauge:
        self._check_free(name, self._gauges)
        gauge = Gauge(name, fn)
        self._gauges[name] = gauge
        return gauge

    def source(self, name: str, fn: Callable[[], dict[str, Any]]) -> None:
        """Register a pull source: ``fn()`` returns ``{gauge name: value}``.

        Called once per snapshot, so a component that already answers
        "all my counters" in one dict (``Experiment.counters``) becomes
        gauges without naming any of them here.
        """
        self._sources[name] = fn

    def histogram(self, name: str) -> Histogram:
        self._check_free(name, self._histograms)
        return self._histograms.setdefault(name, Histogram(name))

    def _check_free(self, name: str, own: dict) -> None:
        for kind in (self._gauges, self._histograms):
            if kind is not own and name in kind:
                raise ValueError(f"metric {name!r} already registered "
                                 f"with a different type")

    def snapshot(self) -> dict:
        """Canonical rendering: sorted names, gauges read *now*.

        A gauge whose reader raises (its component was torn down) reports
        ``None`` rather than poisoning the snapshot; a source that raises
        contributes nothing.  A registered gauge wins over a source entry
        of the same name.
        """
        gauges: dict[str, Any] = {}
        for fn in self._sources.values():
            try:
                gauges.update(fn())
            except Exception:            # noqa: BLE001 - snapshot must succeed
                pass
        for name, gauge in self._gauges.items():
            try:
                gauges[name] = gauge.read()
            except Exception:            # noqa: BLE001 - snapshot must succeed
                gauges[name] = None
        return {
            "gauges": {name: gauges[name] for name in sorted(gauges)},
            "histograms": {name: self._histograms[name].snapshot()
                           for name in sorted(self._histograms)},
        }


# --------------------------------------------------------------------------
# Spans
# --------------------------------------------------------------------------
class Span:
    """One recorded phase: name, wall-clock interval, parent link, args.

    Use via ``with telemetry.span(name):`` for nested phases, or
    ``handle = telemetry.interval(name)`` … ``handle.finish()`` for
    overlapping work.  ``duration`` is valid once the span has closed.
    """

    __slots__ = ("telemetry", "name", "args", "track", "start", "end",
                 "parent", "index")

    def __init__(self, telemetry: "Telemetry", name: str, args: dict,
                 track: Optional[str]) -> None:
        self.telemetry = telemetry
        self.name = name
        self.args = args
        self.track = track
        self.start = 0.0
        self.end: Optional[float] = None
        self.parent: Optional[int] = None
        self.index: Optional[int] = None

    @property
    def duration(self) -> float:
        """Seconds from start to finish (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def elapsed(self) -> float:
        """Seconds since start — reads the clock while the span is open."""
        end = self.end if self.end is not None else self.telemetry.clock()
        return end - self.start

    def set(self, **args: Any) -> None:
        """Attach extra key/value arguments to the span."""
        self.args.update(args)

    def finish(self) -> "Span":
        """Close an :meth:`Telemetry.interval` span."""
        self.telemetry._finish(self, stacked=False)
        return self

    # -------------------------------------------------------- with-protocol
    def __enter__(self) -> "Span":
        self.telemetry._enter(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.telemetry._finish(self, stacked=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration * 1e3:.3f}ms" if self.end is not None else "open"
        return f"<Span {self.name} {state}>"


class _NullSpan:
    """The shared do-nothing span a disabled telemetry hands out."""

    __slots__ = ()
    duration = 0.0
    elapsed = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass

    def set(self, **args: Any) -> None:
        pass

    def finish(self) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


# --------------------------------------------------------------------------
# The context
# --------------------------------------------------------------------------
class Telemetry:
    """One observability context: a span recorder plus a metrics registry.

    Args:
        enabled: when False, :meth:`span` / :meth:`interval` return the
            shared no-op span and nothing is ever recorded — the
            zero-overhead-off contract.
        slices: how many sub-intervals :meth:`repro.session.Experiment.run`
            splits the simulated duration into (one ``engine.slice`` span,
            one events-per-slice observation each).  0 keeps a single
            ``engine.run`` span.  Slicing never perturbs the simulation:
            ``run(until=a); run(until=b)`` executes the identical event
            sequence as ``run(until=b)``.
        clock: the time source (``time.perf_counter``); injectable for
            tests.
    """

    def __init__(self, enabled: bool = True, *, slices: int = 0,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        check_count("slices", slices, minimum=0)
        self._enabled = bool(enabled)
        self.slices = slices
        self.clock = clock
        self.metrics = MetricsRegistry()
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @property
    def enabled(self) -> bool:
        return self._enabled

    # ----------------------------------------------------------------- spans
    def span(self, name: str, *, track: Optional[str] = None, **args: Any):
        """A context-manager span; no-op (shared singleton) when disabled."""
        if not self._enabled:
            return _NULL_SPAN
        return Span(self, name, args, track)

    def interval(self, name: str, *, track: Optional[str] = None, **args: Any):
        """A begin-now span closed by ``.finish()`` — for overlapping work.

        The parent is whatever span is open *now*; unlike :meth:`span` it
        never joins the nesting stack, so intervals may overlap freely
        (exporters put each track on its own row).
        """
        if not self._enabled:
            return _NULL_SPAN
        span = Span(self, name, args, track)
        span.parent = self._stack[-1] if self._stack else None
        span.start = self.clock()
        return span

    def _enter(self, span: Span) -> None:
        span.parent = self._stack[-1] if self._stack else None
        span.index = len(self.spans)
        self.spans.append(span)
        self._stack.append(span.index)
        span.start = self.clock()

    def _finish(self, span: Span, *, stacked: bool) -> None:
        if span.end is not None:
            return                        # idempotent (double finish/exit)
        span.end = self.clock()
        if span.index is None:            # interval: recorded at finish time
            span.index = len(self.spans)
            self.spans.append(span)
        if stacked and self._stack and self._stack[-1] == span.index:
            self._stack.pop()

    # ------------------------------------------------------------- reductions
    def self_times(self) -> dict[str, float]:
        """Per-span-name *self* wall-clock: duration minus child durations."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None and span.end is not None:
                own[span.parent] -= span.duration
        totals: dict[str, float] = {}
        for span, self_s in zip(self.spans, own):
            if span.end is not None:
                totals[span.name] = totals.get(span.name, 0.0) + self_s
        return totals

    def span_summary(self) -> dict[str, dict]:
        """Per-name aggregates: count, total and self wall-clock seconds."""
        self_times = self.self_times()
        summary: dict[str, dict] = {}
        for span in self.spans:
            if span.end is None:
                continue
            row = summary.setdefault(span.name,
                                     {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += span.duration
        for name, self_s in self_times.items():
            summary[name]["self_s"] = self_s
        return {name: summary[name] for name in sorted(summary)}

    def snapshot(self) -> dict:
        """The canonical-JSON telemetry snapshot: metrics + span aggregates.

        Wall-clock through and through, so this never belongs in a
        *canonical* artifact; it travels in result/manifest side channels
        (``ExperimentResult.telemetry``, the sweep manifest) instead.
        """
        return {"metrics": self.metrics.snapshot(),
                "spans": self.span_summary()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self._enabled else "off"
        return f"<Telemetry {state} spans={len(self.spans)}>"


#: The ambient default: disabled, shared, recording nothing.
NULL_TELEMETRY = Telemetry(enabled=False)

_ACTIVE: Telemetry = NULL_TELEMETRY


def get_telemetry() -> Telemetry:
    """The ambient telemetry (:data:`NULL_TELEMETRY` unless installed)."""
    return _ACTIVE


def set_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """Install the ambient telemetry; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = telemetry if telemetry is not None else NULL_TELEMETRY
    return previous


@contextlib.contextmanager
def use(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Ambient-install ``telemetry`` for the duration of the block."""
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)
