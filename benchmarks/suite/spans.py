"""Spans recorded from the suite's own files, around the calls into each layer.

:class:`Tracer` wraps the public callables listed in :func:`span_targets` at
class level (before a scenario is built, so every bound method picked up
later is the wrapper) and restores them afterwards.  A span is ``(name,
start, end, parent)`` on a stack; its self time — duration minus the time
its child spans cover — is accumulated per name in place, so a run of half
a million spans keeps constant memory.  Raw spans are kept for the first
:data:`RAW_SPAN_LIMIT` only and written as a Chrome/Perfetto trace-event
file when the repetition ends.

Every span name maps to one per-layer metric (``<layer>.<what>_s``), so the
self times of all names, plus the root span's own, sum to the root span's
duration by construction; the suite asserts that as a self-check.
"""

from __future__ import annotations

import json
import os
from time import perf_counter

#: Raw spans kept for the trace file (the first N by start order).
RAW_SPAN_LIMIT = 50_000

ROOT = "suite.repetition"


def _all_subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def span_targets() -> list[tuple[type, str, str]]:
    """``(class, method, metric)`` for every public callable the suite spans.

    Imported lazily: the parent process never imports ``repro``.
    """
    from repro.collect import CollectPlane, VirtualCollector
    from repro.core.tcpu import TCPU
    from repro.endhost import Aggregator, DataplaneShim
    from repro.net import Host, Port, Simulator
    from repro.session import Experiment, ResultSummary, Scenario
    from repro.sweep import SweepRunner, SweepSpec
    from repro.switches.switch import TPPSwitch

    targets = [
        (Scenario, "build", "session.build_s"),
        (Experiment, "run", "session.run_s"),
        (Experiment, "finish", "session.finish_s"),
        (ResultSummary, "from_result", "session.summary_s"),
        (Simulator, "run", "net.self_s"),
        (Port, "send", "net.port_send_s"),
        (Port, "send_many", "net.port_send_s"),
        (TPPSwitch, "receive", "switches.self_s"),
        (TCPU, "execute_program", "core.tcpu_s"),
        (Host, "send", "endhost.tx_self_s"),
        (Host, "send_many", "endhost.tx_self_s"),
        (DataplaneShim, "send_burst", "endhost.tx_self_s"),
        (Host, "receive", "endhost.rx_self_s"),
        (VirtualCollector, "submit", "collect.submit_s"),
        (CollectPlane, "flush_all", "collect.merge_s"),
        (CollectPlane, "merge", "collect.merge_s"),
        (SweepSpec, "expand", "sweep.expand_s"),
        (SweepRunner, "run", "sweep.run_s"),
    ]
    # Subclasses that override on_tpp/summarize are separate functions; a
    # subclass calling super() nests two spans of the same metric, which
    # self-time accounting handles.
    for cls in [Aggregator, *_all_subclasses(Aggregator)]:
        for method, metric in (("on_tpp", "apps.on_tpp_s"),
                               ("summarize", "apps.summarize_s")):
            if method in vars(cls):
                targets.append((cls, method, metric))
    return targets


class Tracer:
    """Span stack + per-metric self-time accumulators + class-level wraps."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.raw: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []           # frames: [span id, child time]
        self._next_id = 0
        self._restore: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------- wrapping
    def install(self) -> None:
        for cls, method, metric in span_targets():
            original = vars(cls)[method]
            self._restore.append((cls, method, original))
            name = f"{cls.__name__}.{method}"
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, metric))
            else:
                wrapped = self._wrap(original, name, metric)
            setattr(cls, method, wrapped)
        # A forked sweep worker inherits the wraps; it must not inherit the
        # parent's open frames or accumulated times.
        os.register_at_fork(after_in_child=self.reset)

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._restore):
            setattr(cls, method, original)
        self._restore.clear()

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.raw.clear()
        self._stack.clear()
        self._next_id = 0

    def _wrap(self, fn, name: str, metric: str):
        stack, raw, clock = self._stack, self.raw, perf_counter
        self_s, calls = self.self_s, self.calls

        def span(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[metric] = self_s.get(metric, 0.0) + duration - frame[1]
                calls[metric] = calls.get(metric, 0) + 1
                parent = -1
                if stack:
                    top = stack[-1]
                    top[1] += duration
                    parent = top[0]
                if span_id < RAW_SPAN_LIMIT:
                    raw.append((name, start, end, parent))

        span.__wrapped__ = fn
        return span

    def root(self, fn):
        """Run ``fn()`` as the root span; returns ``(result, duration)``.

        The duration is measured independently of the accumulators, so
        ``sum(self_s.values()) == duration`` is a real check.
        """
        wrapped = self._wrap(fn, ROOT, "suite.self_s")
        start = perf_counter()
        result = wrapped()
        return result, perf_counter() - start

    # -------------------------------------------------------------- workers
    def drain(self) -> dict:
        """Hand over and zero the accumulators (a sweep worker, per task)."""
        payload = {"self_s": dict(self.self_s), "calls": dict(self.calls)}
        self.self_s.clear()
        self.calls.clear()
        return payload

    # --------------------------------------------------------------- export
    def write_chrome_trace(self, path: str, process_name: str) -> int:
        """Write the kept raw spans as trace-event JSON; returns the count."""
        spans = sorted(self.raw, key=lambda s: s[1])
        origin = spans[0][1] if spans else 0.0
        events: list[dict] = [{"name": "process_name", "ph": "M", "pid": 1,
                               "tid": 0, "args": {"name": process_name}}]
        for name, start, end, parent in spans:
            events.append({"name": name, "ph": "X", "pid": 1, "tid": 0,
                           "ts": (start - origin) * 1e6,
                           "dur": (end - start) * 1e6,
                           "args": {"parent": parent}})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(spans)
