"""repro.obs — the runtime observability plane.

Spans, a typed metrics registry, the dataplane flight recorder, and
Perfetto trace export.  A *sidecar* layer: nothing below the session layer
imports it — engine components keep plain counters and the session layer
registers gauges over them — and it must never perturb results (see
:mod:`repro.obs.telemetry` for the two invariants).

Quick start::

    from repro import obs

    telemetry = obs.Telemetry(slices=8)
    with obs.use(telemetry):
        result = scenario.run(duration_s=1.0)

    result.telemetry                      # canonical metrics snapshot
    telemetry.self_times()                # span name -> self wall-clock
    obs.write_trace(telemetry, "run.json")  # load in ui.perfetto.dev

Names resolve on first use: the recorder and the exporter load only when a
scenario declares one or a trace is written.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "flightrec": ("DropExplanation", "FlightRecorder", "JourneyLog",
                  "PacketJourney", "RecorderSpec"),
    "perfetto": ("network_trace_events", "trace_events",
                 "write_network_trace", "write_trace"),
    "telemetry": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                  "NULL_TELEMETRY", "Span", "Telemetry", "get_telemetry",
                  "set_telemetry", "use"),
})
