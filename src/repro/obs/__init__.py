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
"""

from .flightrec import (DropExplanation, FlightRecorder, JourneyLog,
                        PacketJourney, RecorderSpec)
from .perfetto import (network_trace_events, trace_events,
                       write_network_trace, write_trace)
from .telemetry import (Counter, Gauge, Histogram, MetricsRegistry,
                        NULL_TELEMETRY, Span, Telemetry, get_telemetry,
                        set_telemetry, use)

__all__ = [
    "Counter", "DropExplanation", "FlightRecorder", "Gauge", "Histogram",
    "JourneyLog", "MetricsRegistry", "NULL_TELEMETRY", "PacketJourney",
    "RecorderSpec", "Span", "Telemetry", "get_telemetry",
    "network_trace_events", "set_telemetry", "trace_events", "use",
    "write_network_trace", "write_trace",
]
