"""Tests for the observability plane (repro.obs).

Covers the :class:`Telemetry` span recorder (nesting, intervals,
self-times), the typed metrics registry (counters, pull gauges,
histograms), the zero-overhead-off contract (a disabled telemetry hands
out one shared no-op span), the Perfetto trace-event exporter (validated
against ``tools/check_trace_schema.py``), and the two load-bearing
invariants end to end:

* **No perturbation** — every app scenario in the repo runs with
  telemetry off, on, and exporting, and all three land on the identical
  simulator event total and identical canonical
  :class:`~repro.session.ResultSummary` JSON.
* **Side channels only** — telemetry snapshots ride on
  ``ExperimentResult.telemetry`` / ``ResultSummary.telemetry`` and the
  sweep manifest, never inside a canonical rendering.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro import obs
from repro.net import mbps
from repro.obs import (MetricsRegistry, NULL_TELEMETRY, Telemetry,
                       trace_events, write_trace)
from repro.obs.perfetto import MAIN_TRACK_TID
from repro.obs.telemetry import _NULL_SPAN
from repro.session import ResultSummary
from repro.sweep import SweepRunner


def _load_trace_checker():
    path = Path(__file__).resolve().parent.parent / "tools" / "check_trace_schema.py"
    spec = importlib.util.spec_from_file_location("check_trace_schema", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_trace_schema = _load_trace_checker()


class FakeClock:
    """A deterministic clock: each read advances by one second."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
class TestSpans:
    def test_nested_spans_record_parent_links(self):
        telemetry = Telemetry(clock=FakeClock())
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        outer, inner = telemetry.spans
        assert outer.name == "outer" and outer.parent is None
        assert inner.name == "inner" and inner.parent == outer.index
        assert outer.duration > inner.duration > 0

    def test_span_args_and_set(self):
        telemetry = Telemetry(clock=FakeClock())
        with telemetry.span("phase", kind="build") as span:
            span.set(items=3)
        assert telemetry.spans[0].args == {"kind": "build", "items": 3}

    def test_interval_spans_overlap_freely(self):
        telemetry = Telemetry(clock=FakeClock())
        first = telemetry.interval("task", track="a")
        second = telemetry.interval("task", track="b")
        first.finish()
        second.finish()
        assert [span.track for span in telemetry.spans] == ["a", "b"]
        assert all(span.duration > 0 for span in telemetry.spans)

    def test_interval_parent_is_enclosing_span(self):
        telemetry = Telemetry(clock=FakeClock())
        with telemetry.span("outer"):
            handle = telemetry.interval("task")
        handle.finish()
        assert telemetry.spans[-1].parent == telemetry.spans[0].index

    def test_finish_is_idempotent(self):
        telemetry = Telemetry(clock=FakeClock())
        handle = telemetry.interval("task")
        end = handle.finish().end
        assert handle.finish().end == end
        assert len(telemetry.spans) == 1

    def test_elapsed_reads_clock_while_open(self):
        clock = FakeClock()
        telemetry = Telemetry(clock=clock)
        handle = telemetry.interval("task")
        assert handle.elapsed > 0          # open: reads the clock
        first = handle.finish().elapsed
        assert handle.elapsed == first     # closed: frozen

    def test_self_times_subtract_children(self):
        telemetry = Telemetry(clock=FakeClock())
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        self_times = telemetry.self_times()
        outer, inner = telemetry.spans
        assert self_times["inner"] == pytest.approx(inner.duration)
        assert self_times["outer"] == pytest.approx(
            outer.duration - inner.duration)

    def test_span_summary_aggregates_by_name(self):
        telemetry = Telemetry(clock=FakeClock())
        for _ in range(3):
            with telemetry.span("phase"):
                pass
        summary = telemetry.span_summary()
        assert summary["phase"]["count"] == 3
        assert summary["phase"]["total_s"] == pytest.approx(
            sum(span.duration for span in telemetry.spans))


class TestZeroOverheadOff:
    def test_disabled_span_is_one_shared_singleton(self):
        telemetry = Telemetry(enabled=False)
        assert telemetry.span("a") is _NULL_SPAN
        assert telemetry.span("b", key="value") is _NULL_SPAN
        assert telemetry.interval("c", track="t") is _NULL_SPAN

    def test_null_span_is_inert(self):
        with NULL_TELEMETRY.span("anything") as span:
            span.set(key="value")
        assert span.finish() is span
        assert span.duration == 0.0 and span.elapsed == 0.0
        assert NULL_TELEMETRY.spans == []

    def test_ambient_default_is_disabled(self):
        assert obs.get_telemetry() is NULL_TELEMETRY
        assert not NULL_TELEMETRY.enabled

    def test_use_installs_and_restores(self):
        telemetry = Telemetry()
        with obs.use(telemetry) as installed:
            assert installed is telemetry
            assert obs.get_telemetry() is telemetry
        assert obs.get_telemetry() is NULL_TELEMETRY


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_gauge_reads_at_snapshot_time_only(self):
        registry = MetricsRegistry()
        calls = []
        registry.gauge("depth", lambda: calls.append(1) or len(calls))
        assert calls == []                             # registration is free
        assert registry.snapshot()["gauges"]["depth"] == 1
        assert registry.snapshot()["gauges"]["depth"] == 2

    def test_gauge_failure_reports_none(self):
        registry = MetricsRegistry()
        registry.gauge("gone", lambda: 1 / 0)
        assert registry.snapshot()["gauges"]["gone"] is None

    def test_histogram_statistics(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("wall")
        for value in (1.0, 2.0, 4.0):
            histogram.observe(value)
        snapshot = registry.snapshot()["histograms"]["wall"]
        assert snapshot["count"] == 3
        assert snapshot["sum"] == pytest.approx(7.0)
        assert snapshot["min"] == 1.0 and snapshot["max"] == 4.0
        assert snapshot["mean"] == pytest.approx(7.0 / 3)
        # 1.0 -> exponent 1, 2.0 -> 2, 4.0 -> 3 (frexp convention).
        assert snapshot["log2_bins"] == {"1": 1, "2": 1, "3": 1}

    def test_cross_type_name_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("name")
        with pytest.raises(ValueError, match="different type"):
            registry.gauge("name", lambda: 0)
        registry = MetricsRegistry()
        registry.gauge("name", lambda: 0)
        with pytest.raises(ValueError, match="different type"):
            registry.histogram("name")

    def test_gauge_reregistration_replaces_reader(self):
        registry = MetricsRegistry()
        registry.gauge("depth", lambda: 1)
        registry.gauge("depth", lambda: 2)             # component rebuilt
        assert registry.snapshot()["gauges"]["depth"] == 2

    def test_snapshot_is_sorted_and_json_serializable(self):
        registry = MetricsRegistry()
        registry.gauge("b", lambda: 1)
        registry.gauge("a", lambda: 2)
        registry.histogram("d").observe(1.0)
        registry.histogram("c").observe(2.0)
        snapshot = registry.snapshot()
        assert list(snapshot["gauges"]) == ["a", "b"]
        assert list(snapshot["histograms"]) == ["c", "d"]
        json.dumps(snapshot)                           # must not raise


# ---------------------------------------------------------------------------
# Perfetto export
# ---------------------------------------------------------------------------
class TestPerfettoExport:
    def _telemetry(self):
        telemetry = Telemetry(clock=FakeClock())
        with telemetry.span("outer", phase="x"):
            with telemetry.span("inner"):
                pass
        first = telemetry.interval("task", track="task:a")
        second = telemetry.interval("task", track="task:b")
        first.finish()
        second.finish()
        return telemetry

    def test_trace_event_structure(self):
        events = trace_events(self._telemetry())
        assert events[0] == {"name": "process_name", "ph": "M", "pid": 1,
                             "tid": MAIN_TRACK_TID, "args": {"name": "repro"}}
        complete = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in complete] == ["outer", "inner",
                                                 "task", "task"]
        # Stacked spans on the main track; each interval track its own tid.
        assert complete[0]["tid"] == complete[1]["tid"] == MAIN_TRACK_TID
        assert complete[2]["tid"] != complete[3]["tid"] != MAIN_TRACK_TID
        # Timestamps are µs relative to the earliest start.
        assert complete[0]["ts"] == 0.0
        assert all(e["dur"] > 0 for e in complete)
        thread_names = [e for e in events if e["ph"] == "M"
                        and e["name"] == "thread_name"]
        assert {e["args"]["name"] for e in thread_names} == \
            {"task:a", "task:b"}

    def test_exotic_args_fall_back_to_repr(self):
        telemetry = Telemetry(clock=FakeClock())
        with telemetry.span("phase", obj={1, 2}):
            pass
        [event] = [e for e in trace_events(telemetry) if e["ph"] == "X"]
        assert event["args"]["obj"] == repr({1, 2})

    def test_write_trace_validates_against_schema_checker(self, tmp_path):
        path = tmp_path / "trace.json"
        write_trace(self._telemetry(), path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert check_trace_schema.validate_trace(loaded) == []
        assert loaded["displayTimeUnit"] == "ms"

    def test_schema_checker_rejects_malformed_traces(self):
        validate = check_trace_schema.validate_trace
        assert validate([]) != []                       # not an object
        assert validate({}) != []                       # no traceEvents
        assert validate({"traceEvents": [{"ph": "B", "name": "x",
                                          "pid": 1, "tid": 0}]}) != []
        assert validate({"traceEvents": [{"ph": "X", "name": "x", "pid": 1,
                                          "tid": 0, "ts": 0.0,
                                          "dur": -1.0}]}) != []
        assert validate({"traceEvents": [{"ph": "M", "name": "bogus",
                                          "pid": 1, "tid": 0,
                                          "args": {"name": "x"}}]}) != []


# ---------------------------------------------------------------------------
# Experiment integration
# ---------------------------------------------------------------------------
def _microburst():
    from repro.apps.microburst import microburst_scenario
    return microburst_scenario(link_rate_bps=mbps(10), offered_load=0.4,
                               seed=3)


class TestExperimentTelemetry:
    @pytest.mark.parametrize("slices", [2.5, float("nan"), -1, True])
    def test_malformed_slices_rejected_at_construction(self, slices):
        # 2.5 used to be accepted and raise TypeError inside Experiment.run.
        with pytest.raises(ValueError, match="slices must be an int >= 0"):
            Telemetry(slices=slices)

    def test_run_records_phases_and_metrics(self):
        telemetry = Telemetry(slices=4)
        result = _microburst().build(0.1, telemetry=telemetry).run(0.1)
        names = {span.name for span in telemetry.spans}
        assert {"experiment.build", "experiment.run", "engine.slice",
                "experiment.finish"} <= names
        assert sum(s.name == "engine.slice" for s in telemetry.spans) == 4
        snapshot = result.telemetry
        assert snapshot["metrics"]["gauges"]["sim.events_executed"] == \
            result.events_executed
        slices = snapshot["metrics"]["histograms"]["sim.events_per_slice"]
        assert slices["count"] == 4
        assert slices["sum"] == result.events_executed
        assert snapshot["metrics"]["gauges"]["tcpu.tpps_executed"] > 0

    def test_ambient_telemetry_via_use(self):
        telemetry = Telemetry()
        with obs.use(telemetry):
            result = _microburst().build(0.05).run(0.05)
        assert result.telemetry is not None
        assert any(s.name == "experiment.run" for s in telemetry.spans)

    def test_disabled_run_carries_no_telemetry(self):
        result = _microburst().build(0.05).run(0.05)
        assert result.telemetry is None

    def test_summary_side_channel_excluded_from_canonical_json(self):
        telemetry = Telemetry()
        result = _microburst().build(0.05, telemetry=telemetry).run(0.05)
        summary = ResultSummary.from_result(result)
        assert summary.telemetry == result.telemetry
        assert "telemetry" not in summary.as_jsonable()


# ---------------------------------------------------------------------------
# The no-perturbation differential: every app, off vs on vs exporting
# ---------------------------------------------------------------------------
def _app_rows():
    """(name, scenario factory, duration) for every app in the repo."""
    from repro.apps.conga import conga_scenario
    from repro.apps.microburst import microburst_scenario
    from repro.apps.netsight import netsight_scenario
    from repro.apps.netverify import verification_scenario
    from repro.apps.rcp import ALPHA_MAXMIN, rcp_scenario
    from repro.apps.sketches import sketch_scenario

    return [
        ("microburst",
         lambda: microburst_scenario(link_rate_bps=mbps(10),
                                     offered_load=0.4, seed=3), 0.125),
        ("netsight",
         lambda: netsight_scenario(link_rate_bps=mbps(10), seed=2), 0.1),
        ("sketches",
         lambda: sketch_scenario(num_leaves=2, num_spines=1,
                                 hosts_per_leaf=2, seed=2), 0.2),
        ("rcp",
         lambda: rcp_scenario(alpha=ALPHA_MAXMIN, link_rate_bps=mbps(10)),
         0.5),
        ("conga",
         lambda: conga_scenario("conga", link_rate_bps=mbps(10)), 0.5),
        ("netverify", verification_scenario, 0.175),
    ]


def _canonical_view(summary: ResultSummary) -> str:
    """Sorted canonical JSON with object addresses masked (some sketch
    parts repr-render)."""
    view = json.dumps(summary.as_jsonable(), sort_keys=True)
    return re.sub(r"0x[0-9a-f]+", "0x-", view)


class TestNoPerturbationDifferential:
    @pytest.mark.parametrize("name,factory,duration",
                             _app_rows(),
                             ids=[row[0] for row in _app_rows()])
    def test_off_on_exporting_identical(self, tmp_path, name, factory,
                                        duration):
        def run(telemetry=None):
            result = factory().build(duration, telemetry=telemetry) \
                .run(duration)
            return result, ResultSummary.from_result(result)

        off_result, off_summary = run()
        on_result, on_summary = run(Telemetry())
        exporting = Telemetry(slices=4)
        export_result, export_summary = run(exporting)
        trace_path = tmp_path / f"{name}.json"
        write_trace(exporting, trace_path)

        assert off_result.events_executed == on_result.events_executed \
            == export_result.events_executed
        assert _canonical_view(off_summary) == _canonical_view(on_summary) \
            == _canonical_view(export_summary)
        assert off_result.telemetry is None
        assert on_result.telemetry is not None
        loaded = json.loads(trace_path.read_text(encoding="utf-8"))
        assert check_trace_schema.validate_trace(loaded) == []


# ---------------------------------------------------------------------------
# Sweep runner integration
# ---------------------------------------------------------------------------
class TestSweepTelemetry:
    def test_runner_records_spans_and_task_timing(self):
        runner = SweepRunner(workers=1, duration_s=0.05)
        result = runner.run([_microburst().to_spec()])
        assert result.wall_s > 0
        names = [span.name for span in runner.telemetry.spans]
        assert names.count("sweep.task") == 1
        [sweep_span] = [s for s in runner.telemetry.spans
                        if s.name == "sweep.run"]
        assert result.wall_s == pytest.approx(sweep_span.duration)
        histogram = runner.telemetry.metrics.histogram("sweep.task_wall_s")
        assert histogram.count == 1
        assert histogram.total == pytest.approx(result.outcomes[0].wall_s)
        # The task span covers the in-process run: opened after the task
        # ran, it would read ~0 and so would the histogram above.
        assert result.outcomes[0].wall_s > 0.5 * result.wall_s

    def test_worker_telemetry_rides_summary_and_manifest(self, tmp_path):
        runner = SweepRunner(workers=1, duration_s=0.05,
                             manifest_dir=tmp_path / "sweep",
                             worker_slices=2)
        result = runner.run([_microburst().to_spec()])
        summary = result.completed[0].summary
        assert summary.telemetry is not None
        assert summary.telemetry["metrics"]["histograms"][
            "sim.events_per_slice"]["count"] == 2
        manifest = json.loads(
            (tmp_path / "sweep" / "manifest.json").read_text(encoding="utf-8"))
        entry = next(iter(manifest["tasks"].values()))
        assert entry["telemetry"] == summary.telemetry
        assert "telemetry" not in entry["summary"]

    def test_canonical_artifact_invariant_in_worker_telemetry(self):
        plain = SweepRunner(workers=1, duration_s=0.05) \
            .run([_microburst().to_spec()])
        observed = SweepRunner(workers=1, duration_s=0.05,
                               worker_slices=4) \
            .run([_microburst().to_spec()])
        assert plain.canonical_json() == observed.canonical_json()
